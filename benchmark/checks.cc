// Output checks and determinism digests.
//
// Every simulator call the benchmark makes is an operation whose output is
// checked here; a violated invariant counts the operation as failed. The
// digest hashes every simulated output at full precision, so a change that
// only makes the simulator faster must leave it unchanged for a given seed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "bench.h"

namespace mtat::record {

namespace {

bool finite(double v) { return std::isfinite(v); }
bool in_unit(double v) { return finite(v) && v >= 0.0 && v <= 1.0 + 1e-12; }
bool non_negative(double v) { return finite(v) && v >= 0.0; }

}  // namespace

int check_time_point(const TimePoint& tp, std::size_t n_be, double interval_end_s) {
  int bad = 0;
  if (!finite(tp.t_sec) || std::fabs(tp.t_sec - interval_end_s) > 1e-6) ++bad;
  if (!non_negative(tp.offered_rps)) ++bad;
  if (!non_negative(tp.lc_p99_ms)) ++bad;
  if (!non_negative(tp.lc_throughput_rps)) ++bad;
  if (!in_unit(tp.lc_fmem_ratio)) ++bad;
  if (!in_unit(tp.lc_fmem_share)) ++bad;
  if (tp.be_fmem_share.size() != n_be || tp.be_throughput.size() != n_be) return bad + 1;
  double share_sum = finite(tp.lc_fmem_share) ? tp.lc_fmem_share : 2.0;
  for (std::size_t i = 0; i < n_be; ++i) {
    if (!in_unit(tp.be_fmem_share[i])) ++bad;
    if (!non_negative(tp.be_throughput[i])) ++bad;
    share_sum += finite(tp.be_fmem_share[i]) ? tp.be_fmem_share[i] : 2.0;
  }
  if (share_sum > 1.0 + 1e-9) ++bad;
  return bad;
}

int check_sim_result(const SimResult& r, std::size_t n_be) {
  int bad = 0;
  double prev_t = -1.0;
  for (const TimePoint& tp : r.series) {
    // Series points are one interval apart; check each against its own end.
    bad += check_time_point(tp, n_be, tp.t_sec);
    if (!(tp.t_sec > prev_t)) ++bad;
    prev_t = tp.t_sec;
  }
  if (!non_negative(r.lc_p99_ms)) ++bad;
  if (!in_unit(r.slo_violation_rate)) ++bad;
  if (!non_negative(r.fairness)) ++bad;
  if (r.be_rate.size() != n_be || r.be_np.size() != n_be) ++bad;
  return bad;
}

namespace {

/// Violations per epoch, one slot per EpochStats entry.
std::vector<int> check_fleet_epochs(const cluster::ClusterResult& r,
                                    const std::vector<cluster::TenantStream>& tenants,
                                    double placements_total) {
  double demand = 0;
  for (const cluster::TenantStream& t : tenants) demand += t.demand_krps;
  std::vector<int> bad(r.epochs.size(), 0);
  double queued_total = 0;
  for (std::size_t e = 0; e < r.epochs.size(); ++e) {
    const cluster::EpochStats& es = r.epochs[e];
    // Offered demand is conserved: every tenant's demand is either routed to
    // a node (alive or not) or queued, never lost from the books.
    if (!finite(es.offered_krps) || std::fabs(es.offered_krps - demand) > 1e-9 * demand)
      ++bad[e];
    if (!finite(es.slo_compliance_pct) || es.slo_compliance_pct < 0.0 ||
        es.slo_compliance_pct > 100.0 + 1e-9)
      ++bad[e];
    if (!non_negative(es.completed_krps) || !(es.window_s > 0)) ++bad[e];
    if (es.alive_nodes + es.crashed_nodes < 1 || es.alive_nodes < 0 || es.queued_tenants < 0 ||
        es.queued_tenants > static_cast<int>(tenants.size()))
      ++bad[e];
    queued_total += es.queued_tenants;
  }
  // Placed plus queued tenants equal all tenants, every epoch. The registry
  // counts placements over the whole run, so the identity is checked summed
  // over epochs; a mismatch fails every epoch, since it cannot be located.
  const double expected =
      static_cast<double>(tenants.size()) * static_cast<double>(r.epochs.size());
  if (std::fabs(placements_total + queued_total - expected) > 0.5)
    for (int& b : bad) ++b;
  return bad;
}

/// Whole-run invariants: node-seconds >= useful, each final-epoch slice.
int check_fleet_result(const cluster::ClusterResult& r,
                       const std::vector<cluster::TenantStream>& tenants, std::size_t n_be) {
  int bad = 0;
  double useful = 0;
  for (const cluster::EpochStats& es : r.epochs) useful += es.alive_nodes * es.window_s;
  if (!finite(r.node_sim_seconds) || r.node_sim_seconds + 1e-9 < useful) ++bad;
  if (!finite(r.slo_compliance_pct) || r.slo_compliance_pct < 0 ||
      r.slo_compliance_pct > 100.0 + 1e-9)
    ++bad;
  int placed = 0;
  for (const cluster::NodeResult& nr : r.nodes) {
    placed += nr.tenants;
    if (nr.ran) bad += check_sim_result(nr.sim, n_be) > 0 ? 1 : 0;
  }
  if (placed + r.unplaced_tenants != static_cast<int>(tenants.size())) ++bad;
  return bad;
}

}  // namespace

std::uint64_t fleet_node_epochs(const cluster::ClusterResult& r) {
  std::uint64_t n = 0;
  for (const cluster::EpochStats& es : r.epochs)
    n += static_cast<std::uint64_t>(es.alive_nodes + es.crashed_nodes);
  return n;
}

std::uint64_t fleet_failed_node_epochs(const cluster::ClusterResult& r,
                                       const std::vector<cluster::TenantStream>& tenants,
                                       double placements_total, std::size_t n_be) {
  const std::vector<int> bad = check_fleet_epochs(r, tenants, placements_total);
  std::uint64_t failed = 0;
  for (std::size_t e = 0; e < r.epochs.size(); ++e)
    if (bad[e] > 0)
      failed += static_cast<std::uint64_t>(r.epochs[e].alive_nodes + r.epochs[e].crashed_nodes);
  failed += static_cast<std::uint64_t>(check_fleet_result(r, tenants, n_be));
  return std::min(failed, fleet_node_epochs(r));
}

void Digest::add(const std::string& s) {
  for (const unsigned char c : s) {
    h_ ^= c;
    h_ *= 0x100000001b3ull;
  }
  h_ ^= 0xff;  // field separator, so "1","23" and "12","3" differ
  h_ *= 0x100000001b3ull;
}

void Digest::add(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  add(std::string(buf));
}

void Digest::add(std::int64_t v) { add(std::to_string(v)); }

std::string Digest::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

namespace {

void add_sim(Digest& d, const SimResult& r) {
  for (const TimePoint& tp : r.series) {
    d.add(tp.t_sec);
    d.add(tp.offered_rps);
    d.add(tp.lc_p99_ms);
    d.add(tp.lc_throughput_rps);
    d.add(tp.lc_fmem_ratio);
    d.add(tp.lc_fmem_share);
    for (double v : tp.be_fmem_share) d.add(v);
    for (double v : tp.be_throughput) d.add(v);
  }
  d.add(r.lc_p99_ms);
  d.add(r.slo_violation_rate);
  d.add(static_cast<std::int64_t>(r.lc_completed));
  for (double v : r.be_rate) d.add(v);
  d.add(r.fairness);
  d.add(r.migration_bytes_per_sec);
}

}  // namespace

std::string digest_sim(const SimResult& r, const std::string& fingerprint) {
  Digest d;
  add_sim(d, r);
  d.add(fingerprint);
  return d.hex();
}

std::string digest_fleet(const cluster::ClusterResult& r) {
  Digest d;
  for (const cluster::EpochStats& es : r.epochs) {
    d.add(static_cast<std::int64_t>(es.epoch));
    d.add(es.window_s);
    for (int v : {es.alive_nodes, es.crashed_nodes, es.straggler_nodes, es.blackout_nodes,
                  es.suspected_nodes, es.evacuated_tenants, es.queued_tenants,
                  es.placement_mode})
      d.add(static_cast<std::int64_t>(v));
    d.add(es.offered_krps);
    d.add(es.completed_krps);
    d.add(es.slo_compliance_pct);
  }
  for (const cluster::NodeResult& nr : r.nodes) {
    d.add(static_cast<std::int64_t>(nr.node_id));
    d.add(static_cast<std::int64_t>(nr.tenants));
    d.add(static_cast<std::int64_t>(nr.ran ? 1 : 0));
    d.add(nr.offered_krps);
    if (nr.ran) add_sim(d, nr.sim);
  }
  d.add(r.slo_compliance_pct);
  d.add(r.max_p99_ms);
  d.add(r.p99_of_p99_ms);
  d.add(r.node_sim_seconds);
  for (int v : {r.overloaded_nodes, r.rebalanced_tenants, r.node_crashes, r.node_stragglers,
                r.node_blackouts, r.warm_restarts, r.cold_restarts, r.evacuations,
                r.failover_retries, r.unplaced_tenants})
    d.add(static_cast<std::int64_t>(v));
  return d.hex();
}

}  // namespace mtat::record

// The three workloads. Each builds its configuration explicitly (no
// environment knobs), takes its seed from the command line, and drives the
// simulator in a closed loop, timing every call it makes.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>

#include "bench.h"
#include "obs/names.h"
#include "workloads/be/be_suite.h"

namespace mtat::record {

NodeGeometry small_geometry() {
  NodeGeometry g;
  g.fmem = Bytes{128} * 1024 * 1024;
  g.smem = Bytes{2} * 1024 * 1024 * 1024;
  g.be_rss = Bytes{140} * 1024 * 1024;
  g.be_scale = BEScale::kDefault;
  g.n_be = 4;
  g.policy = PolicyKind::kMtatFull;
  return g;
}

NodeGeometry fleet_geometry() {
  NodeGeometry g;
  g.fmem = Bytes{32} * 1024 * 1024;
  g.smem = Bytes{512} * 1024 * 1024;
  g.be_rss = Bytes{36} * 1024 * 1024;
  g.be_scale = BEScale::kTest;
  g.n_be = 2;
  g.policy = PolicyKind::kMemtis;
  return g;
}

LCConfig scaled_redis(const NodeGeometry& g) {
  LCConfig c = redis_config();
  c.n_records = static_cast<std::uint64_t>(1.05 * static_cast<double>(g.fmem) /
                                           static_cast<double>(c.record_size));
  return c;
}

SimConfig node_config(const NodeGeometry& g, std::uint64_t seed) {
  SimConfig cfg;
  cfg.fmem = g.fmem;
  cfg.smem = g.smem;
  cfg.lc = scaled_redis(g);
  cfg.be = be_suite(g.be_scale, g.be_rss, /*cores=*/4, g.n_be);
  cfg.policy = g.policy;
  // The standard co-location platform: tier-bandwidth contention on, with
  // sustainable rates scaled by the number of BE tenants sharing the tiers.
  cfg.bandwidth.enabled = true;
  cfg.bandwidth.fmem_accesses_per_sec = 150e6 * g.n_be;
  cfg.bandwidth.smem_accesses_per_sec = 25e6 * g.n_be;
  cfg.seed = seed;
  return cfg;
}

cluster::ClusterConfig fleet_config(bool storm, std::uint64_t seed, bool tiny) {
  const NodeGeometry g = fleet_geometry();
  cluster::ClusterConfig cc;
  cc.node = node_config(g, seed);
  // Capacity at 0.6x redis max with 80% of it offered: about one node in ten
  // overloads, a regime where placement decides compliance.
  cc.node_capacity_krps = 0.6 * cc.node.lc.max_load_krps;
  cc.target_utilization = 0.8;
  cc.seed = seed;
  if (!storm) {
    cc.nodes = tiny ? 8 : 120;
    cc.settle = seconds(1);
    cc.probe_window = seconds(2);
    cc.measure_window = seconds(3);
    return cc;
  }
  cc.nodes = tiny ? 6 : 40;
  cc.settle = seconds(1);
  cc.probe_window = seconds(1);
  cc.measure_window = seconds(2);
  // The heaviest cell of ext_cluster_fault_tolerance: full-intensity storm
  // over four of ten epochs, boosted blackouts, warm restarts.
  faults::ClusterFaultPlan plan = faults::ClusterFaultPlan::storm(1.0);
  plan.epochs = 10;
  plan.storm_epochs = 4;
  plan.node_blackout_prob = 0.4;
  plan.warm_restart = true;
  plan.seed = seed ^ 0x5703'A5EEDull;
  cc.faults = plan;
  return cc;
}

double counter(const obs::MetricsRegistry& reg, const char* name) {
  const obs::Counter* c = reg.find_counter(name);
  return c != nullptr ? c->value() : 0.0;
}

double hist_pct(const obs::MetricsRegistry& reg, const char* name, double pct) {
  const obs::Histogram* h = reg.find_histogram(name);
  return h != nullptr && h->count() > 0 ? static_cast<double>(h->percentile(pct)) : 0.0;
}

namespace {

double gauge(const obs::MetricsRegistry& reg, const char* name) {
  const obs::Gauge* g = reg.find_gauge(name);
  return g != nullptr ? g->value() : 0.0;
}

/// The placement policy handed to ClusterSim::run on traced runs: forwards
/// every call (name included — the sim's degradation ladder keys on it) and
/// times it. place() runs on the cluster thread only.
class TimedPlacement : public cluster::PlacementPolicy {
 public:
  explicit TimedPlacement(const cluster::PlacementPolicy& inner) : inner_(inner) {}
  const char* name() const override { return inner_.name(); }
  std::size_t place(const cluster::TenantStream& tenant,
                    const std::vector<cluster::NodeState>& nodes, Rng& rng) const override {
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t out = inner_.place(tenant, nodes, rng);
    ns_ += std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0)
               .count();
    ++calls_;
    return out;
  }
  double calls() const { return calls_; }
  double ns() const { return ns_; }

 private:
  const cluster::PlacementPolicy& inner_;
  mutable double calls_ = 0;
  mutable double ns_ = 0;
};

/// Sum (or max) one registry value over the final epoch's node dumps
/// (ClusterConfig::keep_node_metrics CSV: kind,name,field,value).
double fleet_node_sum(const cluster::ClusterResult& r, const std::string& kind,
                      const std::string& name, bool take_max = false) {
  double out = 0;
  const std::string prefix = kind + "," + name + ",value,";
  for (const cluster::NodeResult& nr : r.nodes) {
    std::istringstream in(nr.metrics_csv);
    for (std::string line; std::getline(in, line);) {
      if (line.compare(0, prefix.size(), prefix) != 0) continue;
      const double v = std::stod(line.substr(prefix.size()));
      out = take_max ? std::max(out, v) : out + v;
    }
  }
  return out;
}

}  // namespace

Observations run_node_mtat(const Options& opt, Tracer& tr) {
  Observations ob;
  const NodeGeometry g = small_geometry();

  // Set-up: configuration (BE profile tables, LC sizing) and construction
  // (page allocation, tenant generation, PP-M models), repeated so the
  // reported figure is a median. The last instance is the one measured.
  std::unique_ptr<ColocationSim> sim;
  std::unique_ptr<obs::RunContext> ctx;
  std::vector<double> boot_ms;
  for (int i = 0; i < (opt.tiny ? 2 : 9); ++i) {
    sim.reset();
    ctx.reset();
    const std::int64_t t0 = tr.now_ns();
    const SimConfig cfg = node_config(g, opt.seed);
    const std::int64_t t1 = tr.now_ns();
    ctx = std::make_unique<obs::RunContext>(obs::RunContext::TraceMode::kPrivate);
    sim = std::make_unique<ColocationSim>(cfg, ctx.get());
    boot_ms.push_back(tr.end_span("sim.boot", t1) * 1e3);
    ob.setup_s.push_back(tr.end_span("setup", t0));
  }
  const obs::MetricsRegistry& reg = sim->metrics();
  const std::size_t n_be = sim->be_count();

  // The Figure-7 trapezoid at 0.9x redis max, one 1 s interval per run()
  // call. Each interval's constant pattern lives as long as the sim: the
  // queue keeps a pointer to the pattern it was last driven with.
  const double peak_rps = 0.9 * sim->config().lc.max_load_krps * 1000.0;
  const LoadPattern fig7 = LoadPattern::figure7(peak_rps);
  const int per_pass = opt.tiny ? 12 : static_cast<int>(fig7.total_length() / seconds(1));
  const Duration stride = opt.tiny ? seconds(20) : seconds(1);
  std::vector<LoadPattern> steps;
  for (int k = 0; k < per_pass; ++k)
    steps.push_back(LoadPattern::constant(fig7.rate_at(static_cast<SimTime>(k) * stride)));

  const int train_passes = opt.tiny ? 1 : 4;
  // Host times come from passes 1 and later (pass 0 carries the agent's
  // cheaper warm-up): each interval position keeps its least-disturbed wall
  // over at least this many passes.
  const int timing_passes = opt.tiny ? 1 : 5;
  std::vector<double> best_ms(static_cast<std::size_t>(per_pass),
                              std::numeric_limits<double>::infinity());
  const std::int64_t start = tr.now_ns();
  SimResult measured;
  std::string fingerprint;
  for (int pass = 0;; ++pass) {
    const bool measure = pass == train_passes;
    if (measure) sim->reset_stats();
    for (int k = 0; k < per_pass; ++k) {
      const SimTime expect_now = sim->now() + seconds(1);
      const std::int64_t t0 = tr.now_ns();
      sim->run(steps[static_cast<std::size_t>(k)], seconds(1), measure);
      const double wall = tr.end_span(measure ? "run.measured" : "run.train", t0);
      double& best = best_ms[static_cast<std::size_t>(k)];
      if (pass >= 1) {
        best = std::min(best, wall * 1e3);
        ob.interval_tail_ms.push_back(wall * 1e3);
      }
      ob.call_wall_s += wall;
      ob.useful_sim_s += 1.0;

      ++ob.attempted;
      int bad = 0;
      if (sim->now() != expect_now) ++bad;
      if (counter(reg, obs::names::kQueueCompleted) > counter(reg, obs::names::kQueueArrivals))
        ++bad;
      if (measure) {
        const SimResult r = sim->result();
        if (r.series.size() != static_cast<std::size_t>(k) + 1)
          ++bad;
        else
          bad += check_time_point(r.series.back(), n_be, to_seconds(sim->now()));
      }
      if (bad > 0) ++ob.failed;
    }
    if (measure) {
      measured = sim->result();
      fingerprint = sim->fingerprint();
      if (check_sim_result(measured, n_be) > 0) ++ob.failed;
      ++ob.attempted;
    }
    // Further passes only add host-time samples; the simulated outcomes
    // are those of the measured pass.
    if (pass >= train_passes && pass >= timing_passes &&
        (tr.now_ns() - start) * 1e-9 >= opt.seconds)
      break;
  }
  ob.interval_wall_ms = best_ms;
  double best_sum_ms = 0;
  for (double ms : best_ms) best_sum_ms += ms;
  ob.sim_s_per_wall_s = per_pass / (best_sum_ms * 1e-3);

  ob.slo_compliance_pct = 100.0 * (1.0 - measured.slo_violation_rate);
  ob.be_fairness = measured.fairness;
  ob.lc_p99_ms = measured.lc_p99_ms;
  ob.digest = digest_sim(measured, fingerprint);
  ob.notes.push_back("measured pass: " + std::to_string(measured.series.size()) +
                     " intervals, lc_completed " + std::to_string(measured.lc_completed));

  if (opt.trace) {
    std::map<std::string, double>& L = ob.layer;
    const double ticks = ob.useful_sim_s / to_seconds(sim->config().tick);
    const double policy_us = counter(reg, obs::names::kPolicyWallUs);
    L["sim.boot_ms"] = median(boot_ms);
    L["sim.run_wall_s"] = ob.call_wall_s;
    L["sim.policy_interval_us_total"] = policy_us;
    L["sim.tick_self_us"] = (ob.call_wall_s * 1e6 - policy_us) / ticks;
    L["sim.on_interval_us_p50"] = hist_pct(reg, obs::names::kPolicyWallUsHist, 50);
    L["sim.on_interval_us_p99"] = hist_pct(reg, obs::names::kPolicyWallUsHist, 99);
    L["core.ppm_decide_us_p50"] = hist_pct(reg, obs::names::kPpmDecideWallUs, 50);
    L["core.ppm_decide_us_p99"] = hist_pct(reg, obs::names::kPpmDecideWallUs, 99);
    L["core.ppm_decisions"] = counter(reg, obs::names::kPpmDecisions);
    L["core.ppm_guard_trips"] = counter(reg, obs::names::kPpmGuardTrips);
    L["core.ppe_plans"] = counter(reg, obs::names::kPpePlans);
    L["core.ppe_plan_pages"] = gauge(reg, obs::names::kPpePlanPages);
    L["rl.updates"] = counter(reg, obs::names::kRlUpdates);
    L["mem.pages_moved"] = counter(reg, obs::names::kMigrationPagesMoved);
    L["mem.promotions"] = counter(reg, obs::names::kMigrationPromotions);
    L["mem.demotions"] = counter(reg, obs::names::kMigrationDemotions);
    L["loadgen.requests"] = counter(reg, obs::names::kQueueArrivals);
    L["loadgen.backlog_peak"] = gauge(reg, obs::names::kQueueBacklogPeak);
    L["sim.be_ticks"] = ticks * static_cast<double>(n_be);
  }
  return ob;
}

Observations run_fleet(const Options& opt, Tracer& tr, bool storm) {
  Observations ob;
  // One seed's tenant population decides how many nodes overload, so a
  // single fleet's compliance and cost swing with the seed. Each run
  // therefore simulates several sub-fleets, seeded from --seed, and reports
  // their aggregate.
  const int subs = opt.tiny ? 1 : (storm ? 3 : 4);
  std::vector<cluster::ClusterConfig> configs;

  // Set-up: fleet configuration (BE profile tables), the ClusterSim (tenant
  // generation, node seeds) and one node booted from the template — the
  // per-node set-up every fresh boot inside run() repeats.
  std::vector<double> boot_ms;
  for (int i = 0; i < (opt.tiny ? 2 : 15); ++i) {
    const std::int64_t t0 = tr.now_ns();
    const cluster::ClusterConfig cc = fleet_config(storm, opt.seed, opt.tiny);
    obs::RunContext cluster_ctx(obs::RunContext::TraceMode::kPrivate);
    const cluster::ClusterSim setup_sim(cc, &cluster_ctx);
    const std::int64_t t1 = tr.now_ns();
    obs::RunContext node_ctx(obs::RunContext::TraceMode::kPrivate);
    const ColocationSim node(cc.node, &node_ctx);
    boot_ms.push_back(tr.end_span("sim.boot", t1) * 1e3);
    ob.setup_s.push_back(tr.end_span("setup", t0));
  }
  for (int i = 0; i < subs; ++i) {
    const std::uint64_t sub_seed =
        i == 0 ? opt.seed : opt.seed ^ (0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(i));
    configs.push_back(fleet_config(storm, sub_seed, opt.tiny));
    configs.back().keep_node_metrics = opt.trace;
  }
  const std::size_t n_be = configs[0].node.be.size();

  experiments::ParallelRunner runner(kFleetJobs);
  const auto telemetry = cluster::make_placement("telemetry");
  const TimedPlacement timed(*telemetry);
  const cluster::PlacementPolicy& policy =
      opt.trace ? static_cast<const cluster::PlacementPolicy&>(timed) : *telemetry;

  // Whole cycles over the sub-fleets, at least two and until --seconds have
  // passed. A repeated sub-fleet must reproduce its first digest; each keeps
  // its least-disturbed wall.
  const int min_cycles = opt.tiny ? 1 : 2;
  std::vector<cluster::ClusterResult> firsts;
  std::vector<std::string> digests;
  std::vector<double> run_s, useful_s, window_s;
  std::vector<double> best_s(static_cast<std::size_t>(subs),
                             std::numeric_limits<double>::infinity());
  double node_epochs_total = 0, node_sim_total = 0;
  const std::int64_t start = tr.now_ns();
  for (int cycle = 0;; ++cycle) {
    for (int i = 0; i < subs; ++i) {
      obs::RunContext ctx(obs::RunContext::TraceMode::kPrivate);
      cluster::ClusterSim cs(configs[static_cast<std::size_t>(i)], &ctx);
      const std::int64_t t0 = tr.now_ns();
      cluster::ClusterResult r = cs.run(policy, &runner);
      const double wall = tr.end_span("cluster.run", t0);

      double useful = 0, window = 0;
      for (const cluster::EpochStats& es : r.epochs) {
        useful += es.alive_nodes * es.window_s;
        window += es.window_s;
      }
      run_s.push_back(wall);
      ob.call_wall_s += wall;
      ob.useful_sim_s += useful;
      double& best = best_s[static_cast<std::size_t>(i)];
      best = std::min(best, wall);

      // One operation per node-epoch; a repetition that does not reproduce
      // its sub-fleet's first digest fails all of its node-epochs.
      const double placements = counter(ctx.metrics(), obs::names::kClusterPlacements);
      const std::uint64_t node_epochs = fleet_node_epochs(r);
      std::uint64_t failed = fleet_failed_node_epochs(r, cs.tenants(), placements, n_be);
      const std::string digest = digest_fleet(r);
      if (cycle > 0 && digest != digests[static_cast<std::size_t>(i)]) failed = node_epochs;
      ob.attempted += node_epochs;
      ob.failed += failed;
      node_epochs_total += static_cast<double>(node_epochs);
      node_sim_total += r.node_sim_seconds;
      if (cycle == 0) {
        digests.push_back(digest);
        firsts.push_back(std::move(r));
        useful_s.push_back(useful);
        window_s.push_back(window);
      }
    }
    if (cycle + 1 >= min_cycles && (tr.now_ns() - start) * 1e-9 >= opt.seconds) break;
  }
  double useful_sum = 0, best_sum = 0;
  for (std::size_t i = 0; i < best_s.size(); ++i) {
    useful_sum += useful_s[i];
    best_sum += best_s[i];
    ob.interval_wall_ms.push_back(best_s[i] * 1e3 / window_s[i]);
  }
  ob.interval_tail_ms = ob.interval_wall_ms;
  ob.sim_s_per_wall_s = useful_sum / best_sum;

  Digest all;
  double compliance = 0, fairness = 0, p99_of_p99 = 0;
  int overloaded = 0;
  for (std::size_t i = 0; i < firsts.size(); ++i) {
    const cluster::ClusterResult& r = firsts[i];
    all.add(digests[i]);
    double fair_sum = 0, ran = 0;
    for (const cluster::NodeResult& nr : r.nodes) {
      if (!nr.ran) continue;
      fair_sum += nr.sim.fairness;
      ++ran;
    }
    compliance += r.slo_compliance_pct / subs;
    fairness += (ran > 0 ? fair_sum / ran : 0.0) / subs;
    p99_of_p99 += r.p99_of_p99_ms / subs;
    overloaded += r.overloaded_nodes;
  }
  ob.slo_compliance_pct = compliance;
  ob.be_fairness = fairness;
  ob.lc_p99_ms = p99_of_p99;
  ob.digest = all.hex();
  ob.notes.push_back("fleet: " + std::to_string(subs) + " sub-fleets x " +
                     std::to_string(configs[0].nodes) + " nodes, " + std::to_string(overloaded) +
                     " overloaded in all, mean compliance " + std::to_string(compliance) +
                     "%, fleet runs " + std::to_string(run_s.size()));

  if (opt.trace) {
    // Counts come from the first sub-fleet's first run; times from all runs.
    const cluster::ClusterResult& first = firsts[0];
    std::map<std::string, double>& L = ob.layer;
    const double reps = static_cast<double>(run_s.size());
    L["sim.boot_ms"] = median(boot_ms);
    L["cluster_sim.run_s"] = median(run_s);
    L["cluster_sim.run_wall_mean_s"] = ob.call_wall_s / reps;
    L["cluster_sim.node_epochs"] = node_epochs_total / reps;
    L["cluster_sim.wall_ms_per_node_epoch"] = ob.call_wall_s * 1e3 / node_epochs_total;
    L["cluster_sim.useful_fraction"] = ob.useful_sim_s / node_sim_total;
    L["cluster_sim.node_sim_seconds"] = node_sim_total / reps;
    L["placement.calls"] = timed.calls() / reps;
    L["placement.place_us"] = timed.calls() > 0 ? timed.ns() / timed.calls() * 1e-3 : 0.0;
    L["placement.wall_s_per_run"] = timed.ns() * 1e-9 / reps;
    L["cluster_sim.evacuations"] = first.evacuations;
    L["cluster_sim.warm_restarts"] = first.warm_restarts;
    L["cluster_sim.failover_retries"] = first.failover_retries;
    L["cluster_sim.unplaced_tenants"] = first.unplaced_tenants;
    L["faults.node_crashes"] = first.node_crashes;
    L["faults.node_stragglers"] = first.node_stragglers;
    L["faults.node_blackouts"] = first.node_blackouts;
    // Registry sums over the final epoch's nodes (what ClusterResult keeps).
    L["core.ppm_decisions"] = fleet_node_sum(first, "counter", obs::names::kPpmDecisions);
    L["core.ppm_guard_trips"] = fleet_node_sum(first, "counter", obs::names::kPpmGuardTrips);
    L["core.ppe_plans"] = fleet_node_sum(first, "counter", obs::names::kPpePlans);
    L["core.ppe_plan_pages"] = fleet_node_sum(first, "gauge", obs::names::kPpePlanPages);
    L["rl.updates"] = fleet_node_sum(first, "counter", obs::names::kRlUpdates);
    L["mem.pages_moved"] = fleet_node_sum(first, "counter", obs::names::kMigrationPagesMoved);
    L["mem.promotions"] = fleet_node_sum(first, "counter", obs::names::kMigrationPromotions);
    L["mem.demotions"] = fleet_node_sum(first, "counter", obs::names::kMigrationDemotions);
    L["loadgen.requests"] = fleet_node_sum(first, "counter", obs::names::kQueueArrivals);
    L["loadgen.backlog_peak"] =
        fleet_node_sum(first, "gauge", obs::names::kQueueBacklogPeak, /*take_max=*/true);
    if (fleet_node_sum(first, "counter", obs::names::kQueueCompleted) > L["loadgen.requests"])
      ++ob.failed;
  }
  return ob;
}

}  // namespace mtat::record

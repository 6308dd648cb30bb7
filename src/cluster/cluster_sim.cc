#include "cluster/cluster_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "obs/names.h"

namespace mtat::cluster {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
/// Assignment sentinel for a tenant admission control has queued (no node
/// this epoch).
constexpr std::size_t kUnplaced = std::numeric_limits<std::size_t>::max();

double gauge_value(const obs::RunContext& ctx, const char* name) {
  const obs::Gauge* g = ctx.metrics().find_gauge(name);
  return g != nullptr ? g->value() : kNan;
}

/// Fast-tier occupancy of a measured node run, in percent of FMem capacity:
/// the LC share plus every BE share from the last recorded interval.
double node_fmem_util_pct(const SimResult& r) {
  if (r.series.empty()) return 0.0;
  const TimePoint& tp = r.series.back();
  double share = tp.lc_fmem_share;
  for (double s : tp.be_fmem_share) share += s;
  return 100.0 * share;
}

/// Per-node fleet-side failover state, owned by run() and touched by the
/// node shard only through its own disjoint entry (checkpoint read, then
/// write) — never across nodes, so shards stay shared-nothing.
struct NodeFailover {
  // Outage state.
  bool down = false;
  int down_until = 0;         ///< epoch index at which the node restarts
  bool cold_pending = false;  ///< next boot skips settle (cold-page flood)
  // This epoch's injected condition (reset every epoch).
  bool straggler = false;
  bool blacked_out = false;
  // Deterministic checkpoint the node continues from (active plans only):
  // restored on every later boot, warm restarts included. A straggler
  // replays it under its in-node storm on a copy that is then dropped: its
  // epoch is never checkpointed, so the node resumes from its last clean
  // checkpoint.
  std::optional<SimCheckpoint> checkpoint;
  // Watchdog ladder (suspect_after misses down, readmit_after exports up).
  int missed_exports = 0;
  int clean_exports = 0;
  bool suspected = false;
  // Last telemetry the cluster actually received (stale across blackouts).
  double p99_ms = kNan;
  double slo_violation_pct = kNan;
  double fmem_util_pct = kNan;
};

/// Per-tenant failover state: the evacuation/backoff protocol.
struct TenantFailover {
  bool queued = false;  ///< unplaceable last attempt; waiting out the backoff
  int backoff = 0;      ///< current backoff, epochs (doubles up to the cap)
  int retry_at = 0;     ///< first epoch the queued tenant may retry
  std::size_t last_node = kUnplaced;  ///< previous epoch's placement
};

}  // namespace

ClusterSim::ClusterSim(const ClusterConfig& cfg, obs::RunContext* ctx) : cfg_(cfg) {
  if (cfg_.nodes <= 0) throw std::invalid_argument("ClusterSim: nodes must be positive");
  if (cfg_.tenants < 0) throw std::invalid_argument("ClusterSim: negative tenant count");
  if (cfg_.tenants == 0) cfg_.tenants = 4 * cfg_.nodes;
  node_fmem_ = cfg_.node.memory_config().tiers.front().capacity_pages * kPageSize;
  if (ctx == nullptr) {
    owned_ctx_ = std::make_unique<obs::RunContext>();
    ctx_ = owned_ctx_.get();
  } else {
    ctx_ = ctx;
  }

  // Everything stochastic is drawn here, in a fixed order, from cfg.seed:
  // tenant demands and footprints (tenant order), per-node sim seeds (node
  // order), then the placement stream seed. Policies therefore compete on an
  // identical fleet and tenant population, and nothing downstream depends on
  // which worker simulates which shard.
  Rng seeder(cfg_.seed);
  const double fleet_capacity_krps =
      static_cast<double>(cfg_.nodes) * cfg_.node_capacity_krps;
  std::vector<double> weights(static_cast<std::size_t>(cfg_.tenants));
  double weight_sum = 0;
  for (double& w : weights) {
    w = seeder.next_exponential(1.0);  // heavy-ish spread: a few hot tenants
    weight_sum += w;
  }
  tenants_.reserve(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    TenantStream t;
    t.name = "tenant-" + std::to_string(i);
    t.demand_krps =
        cfg_.target_utilization * fleet_capacity_krps * weights[i] / weight_sum;
    const double spread = 0.25 + 1.5 * seeder.next_double();  // x0.25 .. x1.75
    t.footprint = static_cast<Bytes>(cfg_.footprint_mean_fraction * spread *
                                     static_cast<double>(node_fmem_));
    tenants_.push_back(std::move(t));
  }
  node_seeds_.reserve(static_cast<std::size_t>(cfg_.nodes));
  for (int n = 0; n < cfg_.nodes; ++n) node_seeds_.push_back(seeder.next_u64());
  placement_seed_ = seeder.next_u64();

  obs::MetricsRegistry& reg = ctx_->metrics();
  reg.gauge(obs::names::kClusterNodes).set(static_cast<double>(cfg_.nodes));
  reg.gauge(obs::names::kClusterTenants).set(static_cast<double>(cfg_.tenants));
}

ClusterResult ClusterSim::run(const PlacementPolicy& policy,
                              experiments::ParallelRunner* runner) {
  // The only place plan activity matters: an inert plan runs two epochs,
  // admits without a cap, and boots every node fresh with settle each epoch
  // instead of carrying checkpoints. Every stage below runs on every fleet;
  // under an inert plan it draws nothing, fences nothing and never degrades.
  const faults::ClusterFaultPlan& plan = cfg_.faults;
  const bool active = plan.any();
  const int epochs = active ? std::max(2, plan.epochs) : 2;
  const double admission_cap =
      active ? plan.admission_max_utilization : std::numeric_limits<double>::infinity();
  const bool carry_checkpoints = active;

  faults::ClusterFaultInjector injector(plan);
  const std::unique_ptr<PlacementPolicy> bin_rung = make_bin_packing_placement();
  const std::unique_ptr<PlacementPolicy> random_rung = make_random_placement();
  const bool telemetry_policy = std::string(policy.name()) == "telemetry";
  const std::size_t n_nodes = static_cast<std::size_t>(cfg_.nodes);
  std::vector<NodeFailover> fo(n_nodes);
  std::vector<TenantFailover> tf(tenants_.size());

  obs::MetricsRegistry& reg = ctx_->metrics();
  ClusterResult r;
  std::vector<std::size_t> prev_assignment;
  int total_moved = 0;
  int ladder_mode = 0;         // 0 native, 1 bin-packing, 2 random
  Duration node_sim_time = 0;  // every node's simulated time, boot included

  for (int e = 0; e < epochs; ++e) {
    const Duration window = e == epochs - 1 ? cfg_.measure_window : cfg_.probe_window;
    const double window_s = to_seconds(window);

    // --- fault injection (cluster thread, node-id order) ---------------------
    for (std::size_t n = 0; n < n_nodes; ++n) {
      NodeFailover& f = fo[n];
      f.straggler = false;
      f.blacked_out = false;
      if (f.down && e >= f.down_until) {
        f.down = false;
        if (plan.warm_restart && f.checkpoint) {
          ++r.warm_restarts;
          reg.counter(obs::names::kClusterFailoverWarmRestarts).inc();
        } else if (!plan.warm_restart) {
          // Cold restart: forget everything. The node boots fresh and goes
          // straight into traffic — the cold-page flood.
          f.checkpoint.reset();
          f.cold_pending = true;
          ++r.cold_restarts;
          reg.counter(obs::names::kClusterFailoverColdRestarts).inc();
        }
        // Warm plan but no checkpoint yet (crashed before the first epoch
        // completed): a plain fresh boot with settle, counted as neither.
      }
      if (f.down) continue;  // still in the outage: no draws for this node
      if (injector.crash_node(e)) {
        f.down = true;
        f.down_until = e + std::max(1, plan.outage_epochs);
        ++r.node_crashes;
        reg.counter(obs::names::kFaultNodeCrashes).inc();
        ctx_->trace().instant(obs::names::kEvNodeFault, obs::names::kCatSim, "node",
                              static_cast<double>(n), "kind", /*crash=*/0.0);
        continue;  // crash wins: no straggler/blackout draw this epoch
      }
      if (injector.straggle_node(e)) {
        f.straggler = true;
        ++r.node_stragglers;
        reg.counter(obs::names::kFaultNodeStragglers).inc();
        ctx_->trace().instant(obs::names::kEvNodeFault, obs::names::kCatSim, "node",
                              static_cast<double>(n), "kind", /*straggler=*/1.0);
      }
      if (injector.blackout_node(e)) {
        f.blacked_out = true;
        ++r.node_blackouts;
        reg.counter(obs::names::kFaultNodeBlackouts).inc();
        ctx_->trace().instant(obs::names::kEvNodeFault, obs::names::kCatSim, "node",
                              static_cast<double>(n), "kind", /*blackout=*/2.0);
      }
    }

    // --- candidate node states -----------------------------------------------
    // The balancer sees the telemetry the watchdog last received (NaN before
    // the first export, stale across blackouts and outages). Suspected nodes
    // are fenced out of placement — that is the evacuation mechanism. If the
    // watchdog suspects the whole fleet, fence nothing: routing somewhere
    // beats dropping everything.
    std::vector<NodeState> all(n_nodes), states;
    for (std::size_t n = 0; n < n_nodes; ++n) {
      NodeState& s = all[n];
      s.node_id = static_cast<int>(n);
      s.fmem_capacity = node_fmem_;
      s.capacity_krps = cfg_.node_capacity_krps;
      s.p99_ms = fo[n].p99_ms;
      s.slo_violation_pct = fo[n].slo_violation_pct;
      s.fmem_util_pct = fo[n].fmem_util_pct;
      if (!fo[n].suspected) states.push_back(s);
    }
    if (states.empty()) states = std::move(all);

    // --- degradation ladder (telemetry-aware placement only) -----------------
    if (e > 0 && telemetry_policy) {
      int blind = 0;
      for (const NodeState& s : states)
        if (fo[static_cast<std::size_t>(s.node_id)].missed_exports > 0) ++blind;
      const double coverage = static_cast<double>(blind) / static_cast<double>(states.size());
      int mode = 0;
      if (coverage >= plan.degrade_random_coverage)
        mode = 2;
      else if (coverage >= plan.degrade_bin_packing_coverage)
        mode = 1;
      if (mode != ladder_mode) {
        ladder_mode = mode;
        reg.gauge(obs::names::kClusterFailoverPlacementMode)
            .set(static_cast<double>(ladder_mode));
        ctx_->trace().instant(obs::names::kEvClusterFailover, obs::names::kCatSim, "epoch",
                              static_cast<double>(e), "placement_mode",
                              static_cast<double>(ladder_mode));
      }
    }
    const PlacementPolicy& effective =
        ladder_mode == 2 ? *random_rung : ladder_mode == 1 ? *bin_rung : policy;

    // --- placement (tenant order) with admission control ---------------------
    Rng rng(e == 0 ? placement_seed_
                   : placement_seed_ ^ (0xC1D5'7E11'5EEDull * static_cast<std::uint64_t>(e)));
    std::vector<std::size_t> assignment(tenants_.size(), kUnplaced);
    double placed = 0;
    int queued_now = 0;
    int evacuated = 0;
    double queued_krps = 0;
    const auto count_evacuation = [&] {
      ++evacuated;
      ++r.evacuations;
      reg.counter(obs::names::kClusterFailoverEvacuations).inc();
    };
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      const TenantStream& tenant = tenants_[t];
      TenantFailover& tfo = tf[t];
      if (tfo.queued && e < tfo.retry_at) {
        ++queued_now;  // still waiting out the backoff
        queued_krps += tenant.demand_krps;
        continue;
      }
      if (tfo.queued) {
        ++r.failover_retries;
        reg.counter(obs::names::kClusterFailoverRetries).inc();
      }
      std::size_t chosen = effective.place(tenant, states, rng);
      if (chosen >= states.size())
        throw std::logic_error(std::string("PlacementPolicy ") + effective.name() +
                               " returned node index out of range");
      if (states[chosen].projected_utilization(tenant.demand_krps) > admission_cap) {
        // Refused: fall back to the least-loaded candidate (ties to the
        // lowest node id via strict <).
        std::size_t best = 0;
        double best_util = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < states.size(); ++i) {
          const double u = states[i].projected_utilization(tenant.demand_krps);
          if (u < best_util) {
            best_util = u;
            best = i;
          }
        }
        if (best_util > admission_cap) {
          // Nowhere to land: queue with capped exponential backoff. Never
          // silently dropped — the lost demand is charged to compliance.
          const int cap = std::max(1, plan.max_backoff_epochs);
          tfo.backoff = tfo.backoff == 0 ? 1 : std::min(2 * tfo.backoff, cap);
          tfo.retry_at = e + tfo.backoff;
          // Evacuated off a suspected node, landing pending.
          if (tfo.last_node != kUnplaced && fo[tfo.last_node].suspected) count_evacuation();
          tfo.queued = true;
          tfo.last_node = kUnplaced;
          ++queued_now;
          queued_krps += tenant.demand_krps;
          continue;
        }
        chosen = best;
      }
      NodeState& s = states[chosen];
      const std::size_t node_id = static_cast<std::size_t>(s.node_id);
      if (tfo.last_node != kUnplaced && tfo.last_node != node_id &&
          fo[tfo.last_node].suspected)
        count_evacuation();
      tfo.queued = false;
      tfo.backoff = 0;
      tfo.last_node = node_id;
      assignment[t] = node_id;
      s.assigned_krps += tenant.demand_krps;
      s.assigned_footprint += tenant.footprint;
      s.tenants += 1;
      placed += 1;
    }
    reg.counter(obs::names::kClusterPlacements).inc(placed);

    // --- rebalance accounting ------------------------------------------------
    if (e > 0) {
      for (std::size_t t = 0; t < assignment.size(); ++t)
        if (prev_assignment[t] != kUnplaced && assignment[t] != kUnplaced &&
            prev_assignment[t] != assignment[t])
          ++total_moved;
    }
    prev_assignment = assignment;

    // --- simulate the epoch: one shard per up node ---------------------------
    // Routed tenants fold into per-node demand here, in tenant order, before
    // any worker starts.
    r.nodes.assign(n_nodes, NodeResult{});
    for (std::size_t n = 0; n < n_nodes; ++n) r.nodes[n].node_id = static_cast<int>(n);
    for (std::size_t t = 0; t < assignment.size(); ++t) {
      if (assignment[t] == kUnplaced) continue;  // queued: routed nowhere this epoch
      NodeResult& nr = r.nodes[assignment[t]];
      nr.offered_krps += tenants_[t].demand_krps;
      nr.assigned_footprint += tenants_[t].footprint;
      nr.tenants += 1;
    }
    std::vector<experiments::RunSpec> specs;
    specs.reserve(n_nodes);
    const bool keep_metrics = cfg_.keep_node_metrics;
    // No later epoch restores the last one's checkpoints.
    const bool checkpoint = carry_checkpoints && e + 1 < epochs;
    for (NodeResult& nr : r.nodes) {
      NodeFailover& f = fo[static_cast<std::size_t>(nr.node_id)];
      if (f.down) {
        // Crashed: no shard at all. The routed demand stays in the NodeResult
        // and is counted as violated by the aggregation.
        nr.ran = false;
        nr.p99_ms = kNan;
        nr.slo_violation_pct = kNan;
        nr.fmem_util_pct = kNan;
        continue;
      }
      // Boot mode: continue from the checkpoint (restore; a straggler
      // replays it), cold restart (no settle), or fresh boot plus settle.
      // node_sim_seconds counts what the node simulates: settle, straggler
      // replay and window.
      const Duration settle = f.checkpoint || f.cold_pending ? 0 : cfg_.settle;
      const bool replays = f.checkpoint && f.straggler;
      node_sim_time += window + settle + (replays ? f.checkpoint->replay_time() : 0);
      f.cold_pending = false;
      const double straggle = f.straggler ? plan.straggler_intensity : 0.0;
      specs.push_back(
          {"node" + std::to_string(nr.node_id) + "@" + std::to_string(nr.offered_krps) + "krps",
           [this, &nr, &f, straggle, settle, window, keep_metrics, checkpoint,
            replays](obs::RunContext& ctx) {
             // A straggler runs its whole epoch — checkpoint replay included —
             // under an in-node fault storm; the epoch is not checkpointed.
             if (straggle > 0.0) ctx.install_faults(faults::FaultPlan::storm(straggle));
             std::unique_ptr<ColocationSim> sim;
             if (replays) {
               sim = ColocationSim::replay(*f.checkpoint, &ctx);
             } else if (f.checkpoint) {
               sim = ColocationSim::restore(*f.checkpoint, &ctx);
             } else {
               SimConfig ncfg = cfg_.node;
               ncfg.seed = node_seeds_[static_cast<std::size_t>(nr.node_id)];
               sim = std::make_unique<ColocationSim>(ncfg, &ctx);
             }
             const LoadPattern pattern = LoadPattern::constant(nr.offered_krps * 1000.0);
             if (settle > 0) sim->run(pattern, settle, /*measure=*/false);
             sim->reset_stats();
             sim->run(pattern, window, /*measure=*/true);
             nr.sim = sim->result();

             // Export the node's health through its own metrics registry —
             // these gauges are the telemetry the cluster-level balancer sees;
             // NodeResult reads them back from the registry rather than from
             // the SimResult so the flow is the one production would have.
             obs::MetricsRegistry& reg = ctx.metrics();
             reg.gauge(obs::names::kClusterNodeP99Ms).set(nr.sim.lc_p99_ms);
             reg.gauge(obs::names::kClusterNodeSloViolationPct)
                 .set(100.0 * nr.sim.slo_violation_rate);
             reg.gauge(obs::names::kClusterNodeFmemUtilPct).set(node_fmem_util_pct(nr.sim));
             reg.gauge(obs::names::kClusterNodeOfferedRps).set(nr.offered_krps * 1000.0);
             reg.gauge(obs::names::kClusterNodeTenants).set(static_cast<double>(nr.tenants));
             nr.p99_ms = gauge_value(ctx, obs::names::kClusterNodeP99Ms);
             nr.slo_violation_pct = gauge_value(ctx, obs::names::kClusterNodeSloViolationPct);
             nr.fmem_util_pct = gauge_value(ctx, obs::names::kClusterNodeFmemUtilPct);
             if (keep_metrics) {
               std::ostringstream dump;
               ctx.metrics().write_csv(dump);
               nr.metrics_csv = dump.str();
             }
             if (checkpoint && !f.straggler) f.checkpoint = sim->snapshot();
           }});
    }
    if (runner != nullptr) {
      runner->run_all(specs);
    } else {
      // Serial reference path: a one-job runner executes every spec inline on
      // this thread through the exact same private-context machinery, so the
      // serial and fanned paths cannot drift.
      experiments::ParallelRunner serial(1);
      serial.run_all(specs);
    }
    reg.counter(obs::names::kClusterRounds).inc();
    double routed = 0;
    for (const NodeResult& nr : r.nodes) routed += nr.offered_krps;
    ctx_->trace().instant(obs::names::kEvClusterRound, obs::names::kCatSim, "nodes",
                          static_cast<double>(cfg_.nodes), "offered_krps", routed);

    // --- health watchdog (missed-export hysteresis) --------------------------
    EpochStats es;
    es.epoch = e;
    es.window_s = window_s;
    for (std::size_t n = 0; n < n_nodes; ++n) {
      NodeFailover& f = fo[n];
      const NodeResult& nr = r.nodes[n];
      if (!f.down && !f.blacked_out) {
        f.p99_ms = nr.p99_ms;
        f.slo_violation_pct = nr.slo_violation_pct;
        f.fmem_util_pct = nr.fmem_util_pct;
        f.missed_exports = 0;
        ++f.clean_exports;
        if (f.suspected && f.clean_exports >= plan.readmit_after) {
          f.suspected = false;
          ctx_->trace().instant(obs::names::kEvClusterFailover, obs::names::kCatSim, "node",
                                static_cast<double>(n), "suspected", 0.0);
        }
      } else {
        f.clean_exports = 0;
        ++f.missed_exports;
        if (!f.suspected && f.missed_exports >= plan.suspect_after) {
          f.suspected = true;
          ctx_->trace().instant(obs::names::kEvClusterFailover, obs::names::kCatSim, "node",
                                static_cast<double>(n), "suspected", 1.0);
        }
      }
      if (f.down)
        ++es.crashed_nodes;
      else
        ++es.alive_nodes;
      if (f.straggler) ++es.straggler_nodes;
      if (f.blacked_out) ++es.blackout_nodes;
      if (f.suspected) ++es.suspected_nodes;
    }
    reg.gauge(obs::names::kClusterFailoverSuspectedNodes)
        .set(static_cast<double>(es.suspected_nodes));
    reg.gauge(obs::names::kClusterFailoverQueuedTenants).set(static_cast<double>(queued_now));

    // --- per-epoch fleet series ----------------------------------------------
    es.evacuated_tenants = evacuated;
    es.queued_tenants = queued_now;
    es.placement_mode = ladder_mode;
    double ereq = 0, eviol = 0, ecomp = 0;
    for (const NodeResult& nr : r.nodes) {
      es.offered_krps += nr.offered_krps;
      if (nr.ran) {
        const double reqs = static_cast<double>(nr.sim.lc_completed);
        ereq += reqs;
        eviol += nr.sim.slo_violation_rate * reqs;
        ecomp += reqs;
      } else {
        // Demand routed to a dead node: every one of those requests failed.
        const double lost = nr.offered_krps * 1000.0 * window_s;
        ereq += lost;
        eviol += lost;
      }
    }
    if (queued_krps > 0) {
      // Queued tenants' demand was never served; charge it as violated.
      es.offered_krps += queued_krps;
      const double lost = queued_krps * 1000.0 * window_s;
      ereq += lost;
      eviol += lost;
    }
    es.completed_krps = ecomp / window_s / 1000.0;
    es.slo_compliance_pct = ereq > 0 ? 100.0 * (1.0 - eviol / ereq) : 100.0;
    r.epochs.push_back(es);
    ctx_->trace().instant(obs::names::kEvClusterEpoch, obs::names::kCatSim, "epoch",
                          static_cast<double>(e), "slo_compliance_pct", es.slo_compliance_pct);
  }
  r.rebalanced_tenants = total_moved;

  // Fleet aggregates over the final (measured) epoch, folded in node-id
  // order. Down-node and still-queued demand is charged as violated, so a
  // policy cannot improve its compliance by losing servers or tenants.
  double requests = 0, violations = 0, completed = 0, util_sum = 0;
  const double measure_s = to_seconds(cfg_.measure_window);
  int ran_nodes = 0;
  std::vector<double> p99s;
  p99s.reserve(r.nodes.size());
  for (const NodeResult& nr : r.nodes) {
    r.offered_krps += nr.offered_krps;
    if (!nr.ran) {
      const double lost = nr.offered_krps * 1000.0 * measure_s;
      requests += lost;
      violations += lost;
      continue;
    }
    ++ran_nodes;
    const double reqs = static_cast<double>(nr.sim.lc_completed);
    requests += reqs;
    violations += nr.sim.slo_violation_rate * reqs;
    completed += reqs;
    util_sum += nr.fmem_util_pct;
    r.max_p99_ms = std::max(r.max_p99_ms, nr.p99_ms);
    p99s.push_back(nr.p99_ms);
    if (nr.slo_violation_pct > 1.0) ++r.overloaded_nodes;
  }
  for (std::size_t t = 0; t < tf.size(); ++t) {
    if (!tf[t].queued) continue;
    ++r.unplaced_tenants;
    r.offered_krps += tenants_[t].demand_krps;
    const double lost = tenants_[t].demand_krps * 1000.0 * measure_s;
    requests += lost;
    violations += lost;
  }
  r.completed_krps = completed / measure_s / 1000.0;
  r.slo_compliance_pct = requests > 0 ? 100.0 * (1.0 - violations / requests) : 100.0;
  r.fmem_util_pct = ran_nodes > 0 ? util_sum / static_cast<double>(ran_nodes) : 0.0;
  if (!p99s.empty()) {
    std::sort(p99s.begin(), p99s.end());
    const std::size_t idx = static_cast<std::size_t>(
        std::ceil(0.99 * static_cast<double>(p99s.size()))) - 1;
    r.p99_of_p99_ms = p99s[std::min(idx, p99s.size() - 1)];
  }
  r.node_sim_seconds = to_seconds(node_sim_time);

  reg.counter(obs::names::kClusterRebalancedTenants).inc(static_cast<double>(total_moved));
  reg.gauge(obs::names::kClusterOfferedRps).set(r.offered_krps * 1000.0);
  reg.gauge(obs::names::kClusterSloCompliancePct).set(r.slo_compliance_pct);
  reg.gauge(obs::names::kClusterTailP99Ms).set(r.max_p99_ms);
  reg.gauge(obs::names::kClusterFmemUtilPct).set(r.fmem_util_pct);
  return r;
}

}  // namespace mtat::cluster

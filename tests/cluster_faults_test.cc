// Fleet-level failure domain tests (DESIGN.md §17): ClusterFaultPlan presets
// and spec parsing, the ClusterFaultInjector determinism contract (per-
// category streams, storm gating, draw-free degenerate probabilities), and
// ClusterSim's failure-domain behaviour — an inert plan is the classic
// two-epoch run, a faulted run is bit-identical across job counts and reruns,
// demand is conserved every epoch (queued and dead-node demand is charged,
// never dropped), admission control falls back to the least-loaded node and
// then queues with capped backoff, total blackouts trip the watchdog and the
// degradation ladder without wedging placement, certain crashes take the
// fleet down and bring it back, and warm and cold restarts produce genuinely
// different fleets.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster_sim.h"
#include "faults/cluster_fault_plan.h"
#include "obs/names.h"
#include "workloads/be/be_suite.h"

namespace mtat::cluster {
namespace {

using faults::ClusterFaultInjector;
using faults::ClusterFaultPlan;

// ---------------------------------------------------------- plan + injector --

TEST(ClusterFaultPlan, StormScalesWithIntensityAndValidates) {
  EXPECT_FALSE(ClusterFaultPlan::storm(0.0).any());
  const ClusterFaultPlan half = ClusterFaultPlan::storm(0.5);
  const ClusterFaultPlan full = ClusterFaultPlan::storm(1.0);
  EXPECT_TRUE(half.any());
  EXPECT_DOUBLE_EQ(full.node_crash_prob, 2.0 * half.node_crash_prob);
  EXPECT_DOUBLE_EQ(full.node_blackout_prob, 2.0 * half.node_blackout_prob);
  EXPECT_DOUBLE_EQ(full.straggler_intensity, 1.0);
  EXPECT_THROW(ClusterFaultPlan::storm(-0.1), std::invalid_argument);
  EXPECT_THROW(ClusterFaultPlan::storm(1.1), std::invalid_argument);
}

TEST(ClusterFaultPlan, FromSpecParsesIntensityAndRestartMode) {
  const auto bare = ClusterFaultPlan::from_spec("storm");
  ASSERT_TRUE(bare.has_value());
  EXPECT_TRUE(bare->warm_restart);
  EXPECT_DOUBLE_EQ(bare->node_crash_prob, 0.08);
  const auto cold = ClusterFaultPlan::from_spec("storm:0.5:cold");
  ASSERT_TRUE(cold.has_value());
  EXPECT_FALSE(cold->warm_restart);
  EXPECT_DOUBLE_EQ(cold->node_crash_prob, 0.04);
  EXPECT_TRUE(ClusterFaultPlan::from_spec("storm:1.0:warm")->warm_restart);
  EXPECT_FALSE(ClusterFaultPlan::from_spec("breeze").has_value());
  EXPECT_FALSE(ClusterFaultPlan::from_spec("storm:2").has_value());
  EXPECT_FALSE(ClusterFaultPlan::from_spec("storm:abc").has_value());
  EXPECT_FALSE(ClusterFaultPlan::from_spec("storm:0.5:tepid").has_value());
}

TEST(ClusterFaultInjector, SamePlanSameDrawSequence) {
  ClusterFaultPlan plan;
  plan.node_crash_prob = 0.5;
  plan.node_blackout_prob = 0.5;
  ClusterFaultInjector a(plan), b(plan);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.crash_node(0), b.crash_node(0)) << i;
    EXPECT_EQ(a.blackout_node(0), b.blackout_node(0)) << i;
  }
}

TEST(ClusterFaultInjector, CategoriesDrawFromIndependentStreams) {
  // Turning blackouts on must not shift which nodes crash: the crash draw
  // sequence is a pure function of (seed, crash probability).
  ClusterFaultPlan crashes_only;
  crashes_only.node_crash_prob = 0.5;
  ClusterFaultPlan both = crashes_only;
  both.node_blackout_prob = 0.5;
  ClusterFaultInjector a(crashes_only), b(both);
  for (int i = 0; i < 200; ++i) {
    b.blackout_node(0);  // interleave draws on the other stream
    EXPECT_EQ(a.crash_node(0), b.crash_node(0)) << i;
  }
}

TEST(ClusterFaultInjector, NothingFiresOutsideTheStormPhase) {
  ClusterFaultPlan plan;
  plan.storm_epochs = 2;
  plan.node_crash_prob = 1.0;
  plan.node_straggler_prob = 1.0;
  plan.node_blackout_prob = 1.0;
  ClusterFaultInjector inj(plan);
  EXPECT_TRUE(inj.in_storm(0));
  EXPECT_TRUE(inj.crash_node(1));
  EXPECT_FALSE(inj.in_storm(2));
  EXPECT_FALSE(inj.crash_node(2));
  EXPECT_FALSE(inj.straggle_node(2));
  EXPECT_FALSE(inj.blackout_node(2));
}

TEST(ClusterFaultInjector, DegenerateProbabilitiesResolveWithoutDraws) {
  // p = 0 and p = 1 must not consume randomness: two injectors whose only
  // difference is interleaved degenerate queries stay in lockstep.
  ClusterFaultPlan plan;
  plan.node_crash_prob = 0.5;
  plan.node_blackout_prob = 1.0;
  ClusterFaultInjector a(plan), b(plan);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(b.blackout_node(0));   // p = 1: true, draw-free
    EXPECT_FALSE(b.straggle_node(0));  // p = 0: false, draw-free
    EXPECT_EQ(a.crash_node(0), b.crash_node(0)) << i;
  }
}

// ------------------------------------------------------------- cluster sims --

/// Same deliberately tiny fleet as cluster_test.cc: the failure domain is
/// about event ordering and merge determinism, not scale.
ClusterConfig tiny_cluster(int nodes = 6) {
  ClusterConfig cc;
  cc.nodes = nodes;
  cc.tenants = 3 * nodes;
  cc.node.fmem = 32_MiB;
  cc.node.smem = 512_MiB;
  cc.node.lc = redis_config();
  cc.node.lc.n_records = 30'000;
  cc.node.be = be_suite(BEScale::kTest, 36_MiB, 4, 1);
  cc.node.policy = PolicyKind::kMemtis;
  cc.node_capacity_krps = 6.0;
  cc.settle = milliseconds(500);
  cc.probe_window = seconds(1);
  cc.measure_window = seconds(1);
  cc.keep_node_metrics = true;
  return cc;
}

std::string drop_wall_metrics(const std::string& csv) {
  std::istringstream in(csv);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line))
    if (line.find("wall") == std::string::npos) out << line << '\n';
  return out.str();
}

/// Serializes everything a ClusterResult reports — the per-epoch series and
/// failover counters included — at full precision.
std::string fingerprint(const ClusterResult& r) {
  std::ostringstream ss;
  ss.precision(17);
  ss << r.offered_krps << ',' << r.completed_krps << ',' << r.slo_compliance_pct << ','
     << r.max_p99_ms << ',' << r.p99_of_p99_ms << ',' << r.fmem_util_pct << ','
     << r.overloaded_nodes << ',' << r.rebalanced_tenants << ',' << r.sim_steps << ','
     << r.node_sim_seconds << '\n'
     << r.node_crashes << ',' << r.node_stragglers << ',' << r.node_blackouts << ','
     << r.warm_restarts << ',' << r.cold_restarts << ',' << r.evacuations << ','
     << r.failover_retries << ',' << r.unplaced_tenants << '\n';
  for (const EpochStats& e : r.epochs)
    ss << e.epoch << ',' << e.window_s << ',' << e.alive_nodes << ',' << e.crashed_nodes
       << ',' << e.straggler_nodes << ',' << e.blackout_nodes << ',' << e.suspected_nodes
       << ',' << e.evacuated_tenants << ',' << e.queued_tenants << ',' << e.placement_mode
       << ',' << e.offered_krps << ',' << e.completed_krps << ',' << e.slo_compliance_pct
       << '\n';
  for (const NodeResult& n : r.nodes) {
    ss << n.node_id << ',' << n.tenants << ',' << n.offered_krps << ',' << n.ran << ','
       << n.p99_ms << ',' << n.slo_violation_pct << ',' << n.fmem_util_pct << ','
       << n.sim.lc_completed << '\n'
       << drop_wall_metrics(n.metrics_csv);
  }
  return ss.str();
}

TEST(ClusterFaultSim, InertPlanIsByteIdenticalToNoPlan) {
  // An all-zero plan injects nothing, draws nothing, fences nothing and
  // never degrades: the classic two-epoch run, byte for byte.
  const auto policy = make_telemetry_placement();
  ClusterConfig healthy = tiny_cluster();
  ClusterSim a(healthy);
  ClusterConfig inert = tiny_cluster();
  inert.faults = ClusterFaultPlan{};  // present but !any()
  ClusterSim b(inert);
  const ClusterResult ra = a.run(*policy);
  const ClusterResult rb = b.run(*policy);
  EXPECT_EQ(fingerprint(ra), fingerprint(rb));
  EXPECT_EQ(ra.epochs.size(), 2u);  // probe + measured
  EXPECT_EQ(rb.node_crashes + rb.node_stragglers + rb.node_blackouts, 0);
  EXPECT_EQ(rb.warm_restarts + rb.cold_restarts + rb.evacuations, 0);
}

std::string faulted_fingerprint(const PlacementPolicy& policy, int jobs) {
  ClusterConfig cc = tiny_cluster();
  cc.faults = ClusterFaultPlan::storm(1.0);
  ClusterSim sim(cc);
  if (jobs == 0) return fingerprint(sim.run(policy));  // serial reference path
  experiments::ParallelRunner runner(jobs);
  return fingerprint(sim.run(policy, &runner));
}

TEST(ClusterFaultSim, FaultedRunIsBitIdenticalAcrossJobCountsAndReruns) {
  // The determinism contract extended to the failure domain: the storm, the
  // watchdog, evacuations, and restarts all replay identically whether the
  // shards run serially or on four workers — and again on a rerun.
  const auto policy = make_telemetry_placement();
  const std::string serial = faulted_fingerprint(*policy, 0);
  EXPECT_EQ(serial, faulted_fingerprint(*policy, 4));
  EXPECT_EQ(serial, faulted_fingerprint(*policy, 4)) << "rerun";
}

TEST(ClusterFaultSim, EveryEpochConservesTenantDemand) {
  // Dead-node and queued demand is charged, never dropped: each epoch's
  // offered load is exactly the tenant population's total demand.
  ClusterConfig cc = tiny_cluster();
  cc.faults = ClusterFaultPlan::storm(1.0);
  ClusterSim sim(cc);
  double total = 0;
  for (const TenantStream& t : sim.tenants()) total += t.demand_krps;
  const ClusterResult r = sim.run(*make_telemetry_placement());
  ASSERT_EQ(r.epochs.size(), static_cast<std::size_t>(cc.faults.epochs));
  for (const EpochStats& e : r.epochs)
    EXPECT_NEAR(e.offered_krps, total, 1e-9 * total) << "epoch " << e.epoch;
}

TEST(ClusterFaultSim, TotalBlackoutSuspectsTheFleetWithoutWedgingPlacement) {
  ClusterConfig cc = tiny_cluster();
  ClusterFaultPlan plan;
  plan.node_blackout_prob = 1.0;  // every node dark, every storm epoch
  plan.epochs = 6;
  plan.storm_epochs = 4;
  cc.faults = plan;
  obs::RunContext ctx;
  ClusterSim sim(cc, &ctx);
  const ClusterResult r = sim.run(*make_telemetry_placement());
  EXPECT_EQ(r.node_blackouts, cc.nodes * plan.storm_epochs);
  // After suspect_after consecutive missed exports the whole fleet is
  // suspected; the fence-all fallback must keep placing tenants anyway.
  int max_suspected = 0;
  for (const EpochStats& e : r.epochs) {
    max_suspected = std::max(max_suspected, e.suspected_nodes);
    EXPECT_EQ(e.alive_nodes, cc.nodes) << "blackouts only blind, never kill";
    EXPECT_GT(e.offered_krps, 0.0);
  }
  EXPECT_EQ(max_suspected, cc.nodes);
  EXPECT_GT(r.completed_krps, 0.0);
  // The degradation ladder: epoch 0 has no telemetry to distrust; every
  // later storm epoch sees the whole fleet stale and drops to rung 2
  // (random); so does the first recovery epoch, which places on the storm's
  // last missed export; once exports resume the ladder returns to native.
  std::vector<int> modes;
  for (const EpochStats& e : r.epochs) modes.push_back(e.placement_mode);
  EXPECT_EQ(modes, (std::vector<int>{0, 2, 2, 2, 2, 0}));
  // The rounds counter reflects the full faulted loop.
  EXPECT_EQ(ctx.metrics().find_counter(obs::names::kClusterRounds)->value(),
            static_cast<double>(plan.epochs));
  EXPECT_EQ(ctx.metrics().find_counter(obs::names::kFaultNodeBlackouts)->value(),
            static_cast<double>(r.node_blackouts));
}

TEST(ClusterFaultSim, AdmissionControlFallsBackThenQueuesWithCappedBackoff) {
  // An active plan that injects nothing (certain crashes, but no storm
  // epochs) runs the failover path on a healthy fleet. Under a cap of 40% of
  // a node, bin packing (blind to request rate) keeps proposing nodes the
  // cap refuses: some refused tenants land on the least-loaded node, the
  // rest queue, and the largest tenant can never land anywhere.
  ClusterConfig cc = tiny_cluster();
  ClusterFaultPlan plan;
  plan.node_crash_prob = 1.0;
  plan.storm_epochs = 0;
  plan.epochs = 6;
  plan.max_backoff_epochs = 2;
  plan.admission_max_utilization = 0.4;
  cc.faults = plan;
  ClusterSim sim(cc);
  double total = 0, largest = 0;
  std::size_t largest_t = 0;
  for (std::size_t t = 0; t < sim.tenants().size(); ++t) {
    const double d = sim.tenants()[t].demand_krps;
    total += d;
    if (d > largest) {
      largest = d;
      largest_t = t;
    }
  }
  ASSERT_GT(largest / cc.node_capacity_krps, plan.admission_max_utilization);
  const auto policy = make_bin_packing_placement();
  const ClusterResult r = sim.run(*policy);
  ASSERT_EQ(r.epochs.size(), static_cast<std::size_t>(plan.epochs));
  EXPECT_EQ(r.node_crashes + r.node_stragglers + r.node_blackouts, 0);

  // Reference model of the admission protocol over the same tenants. Bin
  // packing reads neither telemetry nor the RNG, so every proposal is known.
  const std::vector<TenantStream>& tenants = sim.tenants();
  const std::size_t n_nodes = static_cast<std::size_t>(cc.nodes);
  std::vector<int> backoff(tenants.size(), 0), retry_at(tenants.size(), 0);
  std::vector<bool> queued(tenants.size(), false);
  std::vector<int> largest_retry_epochs;
  int retries = 0, landed_fallbacks = 0, others_queued = 0;
  Rng unused(0);
  for (int e = 0; e < plan.epochs; ++e) {
    std::vector<NodeState> nodes(n_nodes);
    for (std::size_t n = 0; n < n_nodes; ++n) {
      nodes[n].node_id = static_cast<int>(n);
      nodes[n].fmem_capacity = cc.node.fmem;
      nodes[n].capacity_krps = cc.node_capacity_krps;
    }
    int queued_now = 0;
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      const double d = tenants[t].demand_krps;
      if (queued[t] && e < retry_at[t]) {
        ++queued_now;
        continue;
      }
      if (queued[t]) {
        ++retries;
        if (t == largest_t) largest_retry_epochs.push_back(e);
      }
      std::size_t chosen = policy->place(tenants[t], nodes, unused);
      if (nodes[chosen].projected_utilization(d) > plan.admission_max_utilization) {
        double best = std::numeric_limits<double>::infinity();
        for (std::size_t n = 0; n < n_nodes; ++n)
          if (nodes[n].projected_utilization(d) < best) {
            best = nodes[n].projected_utilization(d);
            chosen = n;
          }
        if (best > plan.admission_max_utilization) {
          backoff[t] = backoff[t] == 0 ? 1 : std::min(2 * backoff[t], plan.max_backoff_epochs);
          retry_at[t] = e + backoff[t];
          queued[t] = true;
          ++queued_now;
          if (t != largest_t) ++others_queued;
          continue;
        }
        ++landed_fallbacks;
      }
      queued[t] = false;
      backoff[t] = 0;
      nodes[chosen].assigned_krps += d;
      nodes[chosen].assigned_footprint += tenants[t].footprint;
      nodes[chosen].tenants += 1;
    }
    const EpochStats& es = r.epochs[static_cast<std::size_t>(e)];
    EXPECT_EQ(es.queued_tenants, queued_now) << "epoch " << e;
    EXPECT_EQ(es.alive_nodes, cc.nodes) << "epoch " << e;
    EXPECT_NEAR(es.offered_krps, total, 1e-9 * total) << "epoch " << e;
    if (e == plan.epochs - 1)
      for (std::size_t n = 0; n < n_nodes; ++n) {
        EXPECT_EQ(r.nodes[n].tenants, nodes[n].tenants) << "node " << n;
        EXPECT_NEAR(r.nodes[n].offered_krps, nodes[n].assigned_krps, 1e-9 * total)
            << "node " << n;
      }
  }
  EXPECT_GT(landed_fallbacks, 0) << "some refused tenants must land elsewhere";
  EXPECT_GT(others_queued, 0) << "tenants that could land elsewhere must queue too";
  // Backoff 1, 2, then capped at 2: the never-placeable tenant retries at
  // epochs 1, 3 and 5 (uncapped it would wait until epoch 7).
  EXPECT_EQ(largest_retry_epochs, (std::vector<int>{1, 3, 5}));
  EXPECT_EQ(r.failover_retries, retries);
  EXPECT_EQ(r.unplaced_tenants, static_cast<int>(std::count(queued.begin(), queued.end(), true)));
  EXPECT_GE(r.unplaced_tenants, 1);
  EXPECT_EQ(r.evacuations, 0);
  EXPECT_NEAR(r.offered_krps, total, 1e-9 * total);
}

TEST(ClusterFaultSim, CertainCrashTakesTheFleetDownAndBringsItBack) {
  ClusterConfig cc = tiny_cluster();
  ClusterFaultPlan plan;
  plan.node_crash_prob = 1.0;
  plan.storm_epochs = 1;
  plan.outage_epochs = 1;
  plan.epochs = 4;
  plan.warm_restart = false;  // epoch-0 crashes have no checkpoint anyway
  cc.faults = plan;
  ClusterSim sim(cc);
  const ClusterResult r = sim.run(*make_random_placement());
  EXPECT_EQ(r.node_crashes, cc.nodes);
  EXPECT_EQ(r.cold_restarts, cc.nodes);
  ASSERT_EQ(r.epochs.size(), 4u);
  // Epoch 0: everything is down; every request routed there is violated.
  EXPECT_EQ(r.epochs[0].alive_nodes, 0);
  EXPECT_EQ(r.epochs[0].crashed_nodes, cc.nodes);
  EXPECT_EQ(r.epochs[0].slo_compliance_pct, 0.0);
  // After the outage the whole fleet is back and serving again.
  for (std::size_t e = 1; e < r.epochs.size(); ++e) {
    EXPECT_EQ(r.epochs[e].alive_nodes, cc.nodes) << "epoch " << e;
    EXPECT_GT(r.epochs[e].completed_krps, 0.0) << "epoch " << e;
  }
  EXPECT_GT(r.slo_compliance_pct, 0.0);
}

TEST(ClusterFaultSim, WarmAndColdRestartsDivergeOnceCheckpointsExist) {
  // Crashes in later storm epochs hit nodes that have completed an epoch and
  // therefore hold a checkpoint: warm restarts replay it, cold ones boot
  // from scratch. The two modes must produce different fleets — same storm,
  // same crash schedule, different recovered state.
  const auto run_mode = [](bool warm) {
    ClusterConfig cc = tiny_cluster();
    ClusterFaultPlan plan;
    plan.node_crash_prob = 0.5;
    plan.storm_epochs = 3;
    plan.outage_epochs = 1;
    plan.epochs = 5;
    plan.warm_restart = warm;
    cc.faults = plan;
    ClusterSim sim(cc);
    return sim.run(*make_bin_packing_placement());
  };
  const ClusterResult warm = run_mode(true);
  const ClusterResult cold = run_mode(false);
  // The storm itself is mode-independent: identical crash schedules.
  EXPECT_EQ(warm.node_crashes, cold.node_crashes);
  EXPECT_GT(warm.node_crashes, 0);
  EXPECT_GT(warm.warm_restarts, 0);
  EXPECT_EQ(cold.warm_restarts, 0);
  EXPECT_GT(cold.cold_restarts, 0);
  EXPECT_NE(fingerprint(warm), fingerprint(cold));
}

}  // namespace
}  // namespace mtat::cluster

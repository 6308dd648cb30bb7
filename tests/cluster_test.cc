// ClusterSim tests: placement-policy unit behaviour on hand-built node
// states, the fleet determinism contract — bit-identical ClusterResults and
// per-node metric dumps for MTAT_JOBS-style 1 vs 4 worker pools and across
// reruns — and the cluster-level aggregation/telemetry plumbing.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster_sim.h"
#include "obs/names.h"
#include "workloads/be/be_suite.h"

namespace mtat::cluster {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// A hand-built fleet view: `n` identical empty nodes, FMem 100 MiB,
/// capacity 10 KRPS, no telemetry yet.
std::vector<NodeState> blank_nodes(int n) {
  std::vector<NodeState> nodes(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    NodeState& s = nodes[static_cast<std::size_t>(i)];
    s.node_id = i;
    s.fmem_capacity = 100_MiB;
    s.capacity_krps = 10.0;
    s.p99_ms = kNan;
    s.slo_violation_pct = kNan;
    s.fmem_util_pct = kNan;
  }
  return nodes;
}

TenantStream tenant(double krps, Bytes footprint) {
  // Assigned from a std::string, not a char*: GCC 12's -Wrestrict false
  // positive (bug 105329) fires on the inlined char* replace path under ASan.
  static const std::string kTenantName = "t";
  TenantStream t;
  t.name = kTenantName;
  t.demand_krps = krps;
  t.footprint = footprint;
  return t;
}

// ------------------------------------------------------- placement policies --

TEST(Placement, FactoryRoundTripsEveryNameAndRejectsUnknown) {
  for (const std::string& name : all_placement_names())
    EXPECT_EQ(make_placement(name)->name(), name);
  EXPECT_THROW(make_placement("powersoftwo"), std::invalid_argument);
}

TEST(Placement, RandomStaysInRangeAndFollowsTheRngStream) {
  const auto policy = make_random_placement();
  const auto nodes = blank_nodes(7);
  Rng a(99), b(99);
  for (int i = 0; i < 200; ++i) {
    const std::size_t pick = policy->place(tenant(1.0, 1_MiB), nodes, a);
    ASSERT_LT(pick, nodes.size());
    // Same seed, same draw sequence: the policy is a pure function of the rng.
    EXPECT_EQ(pick, policy->place(tenant(1.0, 1_MiB), nodes, b));
  }
}

TEST(Placement, BinPackingPrefersTightestFit) {
  const auto policy = make_bin_packing_placement();
  auto nodes = blank_nodes(3);
  nodes[0].assigned_footprint = 40_MiB;  // 60 MiB room
  nodes[1].assigned_footprint = 90_MiB;  // 10 MiB room — tightest that fits
  nodes[2].assigned_footprint = 0;       // 100 MiB room
  Rng rng(1);
  EXPECT_EQ(policy->place(tenant(1.0, 8_MiB), nodes, rng), 1u);
  // Too big for node 1's slack: node 0 is now the tightest fit.
  EXPECT_EQ(policy->place(tenant(1.0, 50_MiB), nodes, rng), 0u);
}

TEST(Placement, BinPackingOverflowFallsBackToMostRoom) {
  const auto policy = make_bin_packing_placement();
  auto nodes = blank_nodes(3);
  nodes[0].assigned_footprint = 95_MiB;
  nodes[1].assigned_footprint = 60_MiB;  // most room: 40 MiB
  nodes[2].assigned_footprint = 80_MiB;
  Rng rng(1);
  // Nothing can host 200 MiB; overflow goes where it hurts least.
  EXPECT_EQ(policy->place(tenant(1.0, 200_MiB), nodes, rng), 1u);
}

TEST(Placement, BinPackingTiesResolveToLowestNodeId) {
  const auto policy = make_bin_packing_placement();
  const auto nodes = blank_nodes(5);  // identical rooms, identical slacks
  Rng rng(1);
  EXPECT_EQ(policy->place(tenant(1.0, 8_MiB), nodes, rng), 0u);
}

TEST(Placement, TelemetryBalancesProjectedUtilizationBeforeTelemetryExists) {
  const auto policy = make_telemetry_placement();
  auto nodes = blank_nodes(3);
  nodes[0].assigned_krps = 6.0;
  nodes[1].assigned_krps = 2.0;  // least loaded
  nodes[2].assigned_krps = 4.0;
  Rng rng(1);
  EXPECT_EQ(policy->place(tenant(1.0, 1_MiB), nodes, rng), 1u);
}

TEST(Placement, TelemetrySteersAwayFromViolatingNodes) {
  const auto policy = make_telemetry_placement();
  auto nodes = blank_nodes(2);
  // Equal assigned load, but node 0 reported heavy SLO violations and a fat
  // P99 last round; the telemetry policy must route to node 1, which the
  // utilization-only view would have tied.
  nodes[0].assigned_krps = nodes[1].assigned_krps = 5.0;
  nodes[0].p99_ms = 40.0;
  nodes[0].slo_violation_pct = 80.0;
  nodes[0].fmem_util_pct = 100.0;
  nodes[1].p99_ms = 1.0;
  nodes[1].slo_violation_pct = 0.0;
  nodes[1].fmem_util_pct = 60.0;
  Rng rng(1);
  EXPECT_EQ(policy->place(tenant(1.0, 1_MiB), nodes, rng), 1u);
}

// ---------------------------------------------------------- cluster harness --

/// A deliberately tiny fleet: the determinism contract is about merge order,
/// not scale, and CI pays for every simulated second.
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

TEST(ClusterSim, RejectsDegenerateConfigs) {
  ClusterConfig cc = tiny_cluster();
  cc.nodes = 0;
  EXPECT_THROW(ClusterSim sim(cc), std::invalid_argument);
  cc = tiny_cluster();
  cc.tenants = -1;
  EXPECT_THROW(ClusterSim sim(cc), std::invalid_argument);
}

TEST(ClusterSim, TenantPopulationMatchesConfigAndSeed) {
  const ClusterConfig cc = tiny_cluster();
  ClusterSim a(cc), b(cc);
  ASSERT_EQ(a.tenants().size(), static_cast<std::size_t>(cc.tenants));
  double total = 0;
  for (std::size_t i = 0; i < a.tenants().size(); ++i) {
    // Same seed, same population — demands, footprints, names.
    EXPECT_EQ(a.tenants()[i].demand_krps, b.tenants()[i].demand_krps) << i;
    EXPECT_EQ(a.tenants()[i].footprint, b.tenants()[i].footprint) << i;
    total += a.tenants()[i].demand_krps;
  }
  // Demands normalize to fleet capacity x target utilization.
  const double want = cc.target_utilization * cc.nodes * cc.node_capacity_krps;
  EXPECT_NEAR(total, want, 1e-9 * want);
}

TEST(ClusterSim, TenantFootprintsFollowTierZero) {
  // An explicit tier vector overrides node.fmem: tenant working sets are a
  // fraction of the fast tier the nodes actually build.
  ClusterConfig by_tiers = tiny_cluster();
  by_tiers.node.tiers = {{"dram", bytes_to_pages(64_MiB), 73},
                         {"cxl", bytes_to_pages(512_MiB), 202}};
  ClusterConfig by_preset = tiny_cluster();
  by_preset.node.fmem = 64_MiB;
  const ClusterSim a(by_tiers), b(by_preset), preset_32(tiny_cluster());
  ASSERT_EQ(a.tenants().size(), b.tenants().size());
  for (std::size_t i = 0; i < a.tenants().size(); ++i) {
    EXPECT_EQ(a.tenants()[i].footprint, b.tenants()[i].footprint) << i;
    EXPECT_GT(a.tenants()[i].footprint, preset_32.tenants()[i].footprint) << i;
  }
}

/// Drops rows measuring host wall time from a node metrics dump — they time
/// real execution and vary run to run even serially, so they are explicitly
/// outside the determinism contract (obs::names::is_wall_time_metric).
std::string drop_wall_metrics(const std::string& csv) {
  std::istringstream in(csv);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line))
    if (line.find("wall") == std::string::npos) out << line << '\n';
  return out.str();
}

/// Serializes everything a ClusterResult reports — fleet aggregates, every
/// per-node field, and every node's full metrics dump — at full precision.
std::string fingerprint(const ClusterResult& r) {
  std::ostringstream ss;
  ss.precision(17);
  ss << r.offered_krps << ',' << r.completed_krps << ',' << r.slo_compliance_pct << ','
     << r.max_p99_ms << ',' << r.p99_of_p99_ms << ',' << r.fmem_util_pct << ','
     << r.overloaded_nodes << ',' << r.rebalanced_tenants << ',' << r.node_sim_seconds << '\n';
  for (const NodeResult& n : r.nodes) {
    ss << n.node_id << ',' << n.tenants << ',' << n.offered_krps << ',' << n.p99_ms << ','
       << n.slo_violation_pct << ',' << n.fmem_util_pct << ',' << n.sim.lc_completed << '\n'
       << drop_wall_metrics(n.metrics_csv);
  }
  return ss.str();
}

std::string run_fingerprint(const PlacementPolicy& policy, int jobs) {
  const ClusterConfig cc = tiny_cluster();
  ClusterSim sim(cc);
  if (jobs == 0) return fingerprint(sim.run(policy));  // serial reference path
  experiments::ParallelRunner runner(jobs);
  return fingerprint(sim.run(policy, &runner));
}

TEST(ClusterSim, BitIdenticalAcrossJobCountsAndReruns) {
  // The acceptance bar of the fleet layer: same config + policy => the same
  // bytes, whether the shards run serially, on one worker, or on four — and
  // again on a rerun (no hidden process state). Node metric dumps ride along
  // in the fingerprint, so per-node registries are covered too.
  for (const std::string& name : all_placement_names()) {
    const auto policy = make_placement(name);
    const std::string serial = run_fingerprint(*policy, 0);
    EXPECT_EQ(serial, run_fingerprint(*policy, 1)) << name;
    EXPECT_EQ(serial, run_fingerprint(*policy, 4)) << name;
    EXPECT_EQ(serial, run_fingerprint(*policy, 4)) << name << " rerun";
  }
}

TEST(ClusterSim, AggregatesAndClusterGaugesAreConsistent) {
  const ClusterConfig cc = tiny_cluster();
  obs::RunContext ctx;
  ClusterSim sim(cc, &ctx);
  experiments::ParallelRunner runner(2);
  const auto policy = make_bin_packing_placement();
  const ClusterResult r = sim.run(*policy, &runner);

  ASSERT_EQ(r.nodes.size(), static_cast<std::size_t>(cc.nodes));
  int tenants = 0;
  double offered = 0, worst = 0;
  for (const NodeResult& n : r.nodes) {
    tenants += n.tenants;
    offered += n.offered_krps;
    worst = std::max(worst, n.p99_ms);
    EXPECT_FALSE(n.metrics_csv.empty()) << n.node_id;
    // The telemetry fields were read back from the node's own registry.
    EXPECT_TRUE(std::isfinite(n.p99_ms)) << n.node_id;
  }
  EXPECT_EQ(tenants, cc.tenants);
  EXPECT_NEAR(offered, r.offered_krps, 1e-9);
  EXPECT_EQ(worst, r.max_p99_ms);
  EXPECT_GE(r.slo_compliance_pct, 0.0);
  EXPECT_LE(r.slo_compliance_pct, 100.0);
  EXPECT_GT(r.completed_krps, 0.0);
  EXPECT_GT(r.node_sim_seconds, 0.0);

  // Fleet gauges and counters mirror the returned aggregates.
  const obs::MetricsRegistry& reg = ctx.metrics();
  EXPECT_EQ(reg.find_gauge(obs::names::kClusterNodes)->value(), cc.nodes);
  EXPECT_EQ(reg.find_gauge(obs::names::kClusterTenants)->value(), cc.tenants);
  EXPECT_EQ(reg.find_gauge(obs::names::kClusterSloCompliancePct)->value(),
            r.slo_compliance_pct);
  EXPECT_EQ(reg.find_gauge(obs::names::kClusterTailP99Ms)->value(), r.max_p99_ms);
  EXPECT_EQ(reg.find_counter(obs::names::kClusterRounds)->value(), 2.0);  // probe + measured
  EXPECT_EQ(reg.find_counter(obs::names::kClusterPlacements)->value(), 2.0 * cc.tenants);
  EXPECT_EQ(reg.find_counter(obs::names::kClusterRebalancedTenants)->value(),
            r.rebalanced_tenants);
}

TEST(ClusterSim, BinPackingNeverRebalancesWithoutTelemetryInItsScore) {
  // bin_packing ignores telemetry entirely, so its round-2 routing replays
  // round 1 exactly: zero moves, by construction not by accident.
  const ClusterConfig cc = tiny_cluster();
  ClusterSim sim(cc);
  const ClusterResult r = sim.run(*make_bin_packing_placement());
  EXPECT_EQ(r.rebalanced_tenants, 0);
}

}  // namespace
}  // namespace mtat::cluster

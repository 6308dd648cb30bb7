// Fleet-scale simulation: N tiered-memory nodes behind a tenant load balancer.
//
// ClusterSim is the sharded layer above ColocationSim (ROADMAP item 2): each
// of cfg.nodes simulated servers wraps its own complete ColocationSim — own
// tiered memory, migration engine, telemetry, LC queue, BE fleet, and
// per-node placement policy — executed as one experiments::ParallelRunner
// spec with a pre-seeded private obs::RunContext, so shards run on however
// many workers MTAT_JOBS grants yet merge deterministically (bit-identical
// results for jobs=1 vs jobs=N, the PR 5/6 discipline).
//
// On top of the shards sits a cluster-level open-loop load balancer: the
// cluster's tenant request streams (scaled Poisson aggregates, generated
// once per seed so every placement policy is judged on the identical tenant
// population) are routed to nodes by a pluggable cluster::PlacementPolicy.
//
// run() is one epoch loop for every fleet (DESIGN.md §17). Each epoch a
// seed-deterministic injector may crash, degrade (straggler) or blind
// (telemetry blackout) nodes; placement re-routes the full tenant set from
// the `cluster.node_*` telemetry the health watchdog last received (none in
// epoch 0), fencing watchdog-suspected nodes so their tenants evacuate, under
// admission control with capped exponential backoff (unplaceable tenants
// queue and retry, never silently dropped); every up node simulates the
// epoch window; and the watchdog turns missed exports into suspicion with a
// 3-down/5-up hysteresis ladder mirroring MtatPolicy's. Telemetry-aware
// placement degrades bin-packing → random as blackout coverage rises.
// Crashed nodes restart after the outage, warm from a deterministic
// ColocationSim::snapshot() checkpoint or cold into a cold-page flood. The
// final epoch always runs cfg.measure_window to produce the reported
// aggregates.
//
// A healthy fleet is simply an inert ClusterFaultPlan (!plan.any()): nothing
// fires, nothing is fenced, the ladder never moves. Plan activity changes
// exactly three things: an inert plan runs two epochs (the classic probe
// round, then the measured round), admits without a cap, and boots every
// node fresh with settle each epoch instead of carrying checkpoints.
//
// Every policy pays for every epoch whether or not it reads the telemetry,
// so the comparison in bench/ext_cluster_slo.cc is simulate-time fair.
//
// Determinism contract: tenant demands/footprints, per-node seeds, and the
// placement RNG stream are all drawn up front, in a fixed order, from
// cfg.seed; fault draws happen on the cluster thread in node-id order from
// the plan's own per-category streams; node specs write into disjoint result
// slots; every aggregate is folded in node-id order. Nothing consults worker
// scheduling, so the whole ClusterResult — including the per-node metric
// dumps — is a pure function of (config, policy).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/placement.h"
#include "faults/cluster_fault_plan.h"
#include "obs/run_context.h"
#include "sim/colocation_sim.h"
#include "sim/experiments.h"

namespace mtat::cluster {

struct ClusterConfig {
  int nodes = 100;
  /// Per-node platform template (memory geometry, LC workload, BE fleet,
  /// node-level tiering policy). Each node clones it and only the seed
  /// differs; the offered load comes from the tenants routed to the node.
  SimConfig node;
  /// Static per-node serving-capacity estimate handed to the placement
  /// policies (e.g. the measured FMEM_ALL peak of the node template).
  double node_capacity_krps = 8.0;
  /// Tenant streams to route; 0 selects four per node.
  int tenants = 0;
  /// Aggregate tenant demand as a fraction of total fleet capacity
  /// (nodes * node_capacity_krps). Per-tenant demands are exponential
  /// weights normalized to this total, so a fleet always carries the same
  /// load whatever the tenant count.
  double target_utilization = 0.6;
  /// Mean tenant FMem working-set estimate as a fraction of node FMem. The
  /// default makes the tenant population's total footprint roughly equal the
  /// fleet's total FMem at the default four tenants per node, so capacity
  /// packing has to spread across the whole fleet rather than degenerately
  /// piling every tenant onto the first few nodes.
  double footprint_mean_fraction = 0.25;
  Duration settle = seconds(2);         ///< unmeasured warmup before each round
  Duration probe_window = seconds(2);   ///< round-1 telemetry window
  Duration measure_window = seconds(5); ///< round-2 measured window
  /// Retain each node's full metrics registry as a CSV dump in
  /// NodeResult::metrics_csv (determinism tests); off by default — a
  /// hundreds-of-nodes fleet would otherwise carry hundreds of dumps.
  bool keep_node_metrics = false;
  /// Fleet-level failure domain (DESIGN.md §17). The default plan is inert
  /// (!faults.any()): two epochs, no admission cap, fresh boots. An active
  /// plan runs plan.epochs epochs of node crash/straggler/blackout injection
  /// with checkpoint-based restarts and the plan's admission cap.
  faults::ClusterFaultPlan faults;
  std::uint64_t seed = 42;
};

/// One node's slice of a measured round.
struct NodeResult {
  int node_id = 0;
  int tenants = 0;
  double offered_krps = 0;
  Bytes assigned_footprint = 0;
  SimResult sim;  ///< the node's full ColocationSim aggregates
  // The `cluster.node_*` gauges as read back from the node's registry.
  double p99_ms = 0;
  double slo_violation_pct = 0;
  double fmem_util_pct = 0;
  std::string metrics_csv;  ///< only when cfg.keep_node_metrics
  /// False when the node was down (crashed) for the whole epoch: its
  /// sim/telemetry fields are then meaningless (NaN gauges), and its routed
  /// demand counts as violated in the fleet aggregates.
  bool ran = true;
};

/// Per-epoch fleet aggregates — two entries under an inert plan (probe then
/// measured), plan.epochs entries under an active one. The
/// fault-tolerance bench derives storm compliance and time-to-recover from
/// this series.
struct EpochStats {
  int epoch = 0;
  double window_s = 0;
  int alive_nodes = 0;       ///< nodes that simulated this epoch
  int crashed_nodes = 0;     ///< nodes down this epoch
  int straggler_nodes = 0;   ///< nodes degraded by an in-node fault storm
  int blackout_nodes = 0;    ///< nodes whose telemetry export was lost
  int suspected_nodes = 0;   ///< watchdog-suspected after this epoch
  int evacuated_tenants = 0; ///< tenants moved off suspected nodes
  int queued_tenants = 0;    ///< unplaceable tenants awaiting backoff retry
  int placement_mode = 0;    ///< ladder rung: 0 native, 1 bin-packing, 2 random
  double offered_krps = 0;   ///< total tenant demand, placed or queued
  double completed_krps = 0;
  /// Offered-weighted compliance: demand routed to dead nodes or left queued
  /// counts as violated, so losing nodes cannot improve the number.
  double slo_compliance_pct = 0;
};

/// Fleet aggregates over the measured round, all folded in node-id order.
struct ClusterResult {
  std::vector<NodeResult> nodes;
  double offered_krps = 0;         ///< total demand routed
  double completed_krps = 0;       ///< total completion rate observed
  double slo_compliance_pct = 0;   ///< request-weighted across the fleet
  double max_p99_ms = 0;           ///< worst node ("tail of tails")
  double p99_of_p99_ms = 0;        ///< 99th percentile across node P99s
  double fmem_util_pct = 0;        ///< mean node fast-tier utilization
  int overloaded_nodes = 0;        ///< nodes over 1% SLO violations
  int rebalanced_tenants = 0;      ///< placements that moved between rounds
  /// Simulated node-time the run consumed (every epoch, settle and
  /// checkpoint replay included): the denominator-free work measure
  /// bench/perf_cluster.cc rates against wall time.
  double node_sim_seconds = 0;
  std::uint64_t sim_steps = 0;     ///< total node ticks executed

  // --- failure-domain outcomes (zero for healthy runs) ---------------------
  std::vector<EpochStats> epochs;  ///< per-epoch fleet series, epoch order
  int node_crashes = 0;            ///< crash events injected
  int node_stragglers = 0;         ///< straggler epochs injected
  int node_blackouts = 0;          ///< blackout epochs injected
  int warm_restarts = 0;           ///< checkpoint-replay restarts
  int cold_restarts = 0;           ///< from-scratch restarts (cold-page flood)
  int evacuations = 0;             ///< tenants moved off suspected nodes
  int failover_retries = 0;        ///< queued-tenant placement retries
  int unplaced_tenants = 0;        ///< tenants still queued when the run ended
};

class ClusterSim {
 public:
  /// `ctx` is the cluster-level observability context (fleet gauges under
  /// `cluster.*`, round trace events); null makes the sim own one, exactly
  /// as ColocationSim does. Tenants are generated here, from cfg.seed, so
  /// several runs over the same ClusterSim see one tenant population.
  explicit ClusterSim(const ClusterConfig& cfg, obs::RunContext* ctx = nullptr);

  ClusterSim(const ClusterSim&) = delete;
  ClusterSim& operator=(const ClusterSim&) = delete;

  /// Execute the epoch loop under `policy` (two epochs under an inert plan,
  /// plan.epochs under an active one). `runner` fans the node shards across
  /// its workers; null runs them serially (the bit-identical reference path).
  /// run() drives `runner->run_all` itself, so it must be called from the
  /// top level, never from inside a RunSpec — run_all is non-reentrant and
  /// throws std::logic_error if nested.
  ClusterResult run(const PlacementPolicy& policy,
                    experiments::ParallelRunner* runner = nullptr);

  const ClusterConfig& config() const { return cfg_; }
  const std::vector<TenantStream>& tenants() const { return tenants_; }
  obs::RunContext& run_context() { return *ctx_; }

 private:
  ClusterConfig cfg_;
  std::unique_ptr<obs::RunContext> owned_ctx_;
  obs::RunContext* ctx_;
  std::vector<TenantStream> tenants_;
  std::vector<std::uint64_t> node_seeds_;
  std::uint64_t placement_seed_ = 0;
};

}  // namespace mtat::cluster

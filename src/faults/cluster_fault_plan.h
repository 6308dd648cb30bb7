// Fleet-level fault schedules: the cluster-scope sibling of FaultPlan.
//
// FaultPlan (fault_plan.h) describes substrate misbehaviour *inside* one
// node — dropped samples, aborted migrations, latency spikes. Real fleets
// also lose whole nodes: machines crash and restart, stragglers run hot
// under interference, and telemetry exporters silently stop reporting. A
// ClusterFaultPlan describes those node-granular events for ClusterSim's
// epoch loop (DESIGN.md §17): per storm epoch, each alive node may crash
// (out for `outage_epochs`, then restarted warm from its checkpoint or
// cold from scratch), straggle (run the epoch under an in-node
// FaultPlan::storm), or black out (serve traffic but export no telemetry,
// which is what the cluster health watchdog actually observes).
//
// Determinism contract, mirroring FaultPlan: the plan is pure data and the
// ClusterFaultInjector draws every event from per-category RNG streams
// derived from `seed` alone, querying nodes in node-id order on the
// cluster thread — never inside node shards — so the same (cluster seed,
// plan) pair produces bit-identical storms at any MTAT_JOBS. Categories
// never perturb each other: raising the blackout rate cannot shift which
// nodes crash. Zero-probability queries draw nothing, so the inert default
// plan — the healthy fleet — runs the injector without consuming randomness.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/rng.h"

namespace mtat::faults {

/// Everything that can go wrong to whole nodes, in one schedule.
/// Default-constructed plans inject nothing and leave ClusterSim on its
/// classic two-epoch probe/measure structure.
struct ClusterFaultPlan {
  /// Seeds the injector's per-category streams; independent of the cluster
  /// simulation seed so storms and workloads can vary separately.
  std::uint64_t seed = 0xC10D5EEDull;

  // --- epoch structure ------------------------------------------------------
  /// Total epochs ClusterSim runs when the plan is active (>= 2; the final
  /// epoch uses the measurement window, earlier ones the probe window).
  int epochs = 6;
  /// Faults fire only during epochs [0, storm_epochs); the remaining epochs
  /// are the recovery phase the time-to-recover metric is measured over.
  int storm_epochs = 3;

  // --- node crash / restart -------------------------------------------------
  double node_crash_prob = 0.0;  ///< per alive node per storm epoch
  /// Epochs a crashed node stays down before restarting.
  int outage_epochs = 2;
  /// Restart mode: true = warm (replay the node's deterministic checkpoint,
  /// so its tiered-memory/hotness state is bit-exactly reconstructed), false
  /// = cold (fresh sim, empty journal, no settle phase — the cold-page
  /// flood case).
  bool warm_restart = true;

  // --- straggler ------------------------------------------------------------
  double node_straggler_prob = 0.0;  ///< per alive node per storm epoch
  /// The in-node FaultPlan::storm intensity a straggler runs its epoch under.
  double straggler_intensity = 1.0;

  // --- telemetry-export blackout --------------------------------------------
  double node_blackout_prob = 0.0;  ///< per alive node per storm epoch

  // --- watchdog / failover knobs (consumed by ClusterSim) -------------------
  /// Missed consecutive `cluster.node_*` exports before the watchdog
  /// suspects a node, and clean consecutive exports before it readmits one —
  /// the same 3-down/5-up hysteresis shape as MtatPolicy's ladder (§12).
  int suspect_after = 3;
  int readmit_after = 5;
  /// Admission control (active plans only; an inert plan admits every
  /// placement): a placement that would push a node's projected
  /// utilization above this cap is refused; the tenant falls back to the
  /// least-loaded candidate, or queues with capped exponential backoff
  /// (1, 2, 4, ... epochs up to max_backoff_epochs) if every candidate is
  /// over the cap. Queued tenants retry — they are never silently dropped.
  double admission_max_utilization = 1.25;
  int max_backoff_epochs = 8;
  /// Telemetry-aware placement degrades when the fraction of candidate
  /// nodes with stale telemetry reaches these rungs: bin-packing first,
  /// then random (DESIGN.md §17 degradation ladder).
  double degrade_bin_packing_coverage = 0.5;
  double degrade_random_coverage = 0.9;

  /// True when the plan can actually inject something.
  bool any() const {
    return node_crash_prob > 0.0 || node_straggler_prob > 0.0 ||
           node_blackout_prob > 0.0;
  }

  /// The canonical fleet storm, scaled by `intensity` in [0, 1]: per storm
  /// epoch each alive node crashes with 0.08*i, straggles with 0.15*i, and
  /// blacks out with 0.25*i. Throws std::invalid_argument outside [0, 1].
  static ClusterFaultPlan storm(double intensity);

  /// Parse an MTAT_CLUSTER_FAULTS-style spec:
  /// `storm[:intensity][:warm|:cold]` (e.g. "storm", "storm:0.5",
  /// "storm:1.0:cold"). Returns nullopt on an unknown preset, malformed or
  /// out-of-range intensity, or unknown restart mode.
  static std::optional<ClusterFaultPlan> from_spec(const std::string& spec);
};

/// Deterministic executor for a ClusterFaultPlan. Queried once per (epoch,
/// node) on the cluster thread in node-id order; down nodes are not queried
/// at all. Crash takes priority: a node that crashes this epoch is not also
/// asked to straggle or black out.
class ClusterFaultInjector {
 public:
  explicit ClusterFaultInjector(const ClusterFaultPlan& plan)
      : plan_(plan),
        crash_rng_(plan.seed ^ 0xC4A511EDull),
        straggler_rng_(plan.seed ^ 0x57A661E5ull),
        blackout_rng_(plan.seed ^ 0xB1AC0075ull) {}

  const ClusterFaultPlan& plan() const { return plan_; }

  bool in_storm(int epoch) const { return epoch < plan_.storm_epochs; }

  bool crash_node(int epoch) { return draw(crash_rng_, plan_.node_crash_prob, epoch); }
  bool straggle_node(int epoch) { return draw(straggler_rng_, plan_.node_straggler_prob, epoch); }
  bool blackout_node(int epoch) { return draw(blackout_rng_, plan_.node_blackout_prob, epoch); }

 private:
  // Probabilities <= 0 and >= 1 resolve without a draw (the zero-behaviour
  // contract), and nothing is ever drawn outside the storm phase.
  bool draw(Rng& rng, double p, int epoch) {
    if (!in_storm(epoch) || p <= 0.0) return false;
    if (p >= 1.0) return true;
    return rng.next_bool(p);
  }

  ClusterFaultPlan plan_;
  Rng crash_rng_;
  Rng straggler_rng_;
  Rng blackout_rng_;
};

}  // namespace mtat::faults

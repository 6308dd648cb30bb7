// The MTAT framework (paper §3): PP-M decisions enforced by PP-E, behind the
// common TieringPolicy interface so the experiment harness can swap it
// against the baselines.
//
// Variants (paper §5 "Comparisons"):
//  * MTAT (Full)    — RL-sized LC reservation + SA fairness split across BE
//                     partitions, all isolated by PP-E.
//  * MTAT (LC Only) — RL-sized LC reservation only; BE workloads compete for
//                     the residual FMem under frequency-based management.
#pragma once

#include <memory>

#include "core/ppe.h"
#include "core/ppm.h"
#include "policy/policy.h"

namespace mtat {

class MtatPolicy : public TieringPolicy {
 public:
  /// Degradation ladder rung (DESIGN.md §12). Ordered: stepping down moves to
  /// the next simpler, safer controller; stepping up retraces one rung.
  enum class ControlMode {
    kRl = 0,         ///< normal operation: SAC PP-M sizes the LC reservation
    kHeuristic = 1,  ///< waterline controller on the measured P99 alone
    kStatic = 2,     ///< safe placement: LC pinned to the whole FMem
  };

  struct Options {
    PartitionEnforcer::Options ppe;
    PartitionPolicyMaker::Options ppm;
    bool full = true;  ///< Full vs LC-Only (overrides ppe.isolate_be / ppm.manage_be)

    /// Watchdog over the control loop's inputs and the RL agent's outputs.
    /// Each partitioning interval it classifies the loop as healthy or not;
    /// `trip_after` consecutive unhealthy intervals step one rung down the
    /// ladder, `recover_after` consecutive healthy ones step one rung back up
    /// (the asymmetry is the hysteresis — recovery must prove itself longer
    /// than failure needed to trip).
    struct Watchdog {
      enum class Mode {
        kAuto,  ///< armed iff the run has a fault injector attached
        kOn,    ///< always armed
        kOff,   ///< never armed (the pre-watchdog behaviour)
      };
      Mode mode = Mode::kAuto;
      int trip_after = 3;
      int recover_after = 5;
      /// Waterline controller (kHeuristic): grow the reservation at the full
      /// Eq. 1 rate while P99 exceeds this fraction of the SLO; shrink by 5%
      /// of the rate while it sits below `shrink_below` (between the two the
      /// reservation holds).
      double grow_above = 0.8;
      double shrink_below = 0.3;
    };
    Watchdog watchdog;
  };

  /// `be_models` are the offline profiles for the BE tenants, in the same
  /// order the BE tenants appear in ctx.tenants. `lc_slo` is the LC SLO the
  /// reward checks against. `interval` is the partitioning interval (sets the
  /// Eq. 1 action bound via the engine's bandwidth). A shared SacAgent can be
  /// passed to persist learning across simulation phases.
  MtatPolicy(const PolicyContext& ctx, Duration interval, Duration lc_slo,
             std::vector<BEPerfModel> be_models, Options opt, SacAgent* shared_agent = nullptr);

  std::string name() const override { return full_ ? "mtat_full" : "mtat_lc_only"; }
  void on_tick(SimTime now, Duration dt) override;
  void on_interval(SimTime now, Duration interval, Duration lc_p99) override;

  PartitionPolicyMaker& ppm() { return *ppm_; }
  PartitionEnforcer& ppe() { return *ppe_; }
  /// Current LC reservation in pages (for the Figure 5 allocation series).
  std::uint64_t lc_quota() const;

  /// The ladder rung the watchdog currently has the controller on (kRl
  /// always, when the watchdog is not armed).
  ControlMode control_mode() const { return mode_; }
  /// Whether the watchdog is evaluating health this run (resolved from
  /// Options::Watchdog::Mode at set_run_context time).
  bool watchdog_active() const { return watchdog_active_; }

  /// Wire the policy to a run's observability: register MTAT decision
  /// metrics with `ctx`'s registry, record decide spans into its trace, and
  /// forward to PP-M (and its agent) and PP-E; nullptr detaches. The context
  /// must outlive the policy.
  void set_run_context(obs::RunContext* ctx);

  void persist(StateArchive& ar) override;

 private:
  void transition_to(ControlMode next);
  /// One interval of the kHeuristic waterline controller.
  std::uint64_t heuristic_quota(Duration lc_p99) const;

  PolicyContext ctx_;
  bool full_;
  Options::Watchdog wd_;
  Duration lc_slo_ = 0;
  std::uint64_t max_alpha_ = 0;
  std::uint64_t fmem_capacity_ = 0;
  std::uint64_t min_lc_pages_ = 0;
  std::size_t lc_idx_ = 0;
  std::unique_ptr<PartitionEnforcer> ppe_;
  std::unique_ptr<PartitionPolicyMaker> ppm_;
  bool watchdog_active_ = false;
  ControlMode mode_ = ControlMode::kRl;
  int unhealthy_streak_ = 0;
  int healthy_streak_ = 0;
  obs::TraceRecorder* trace_ = nullptr;
  obs::Histogram* decide_wall_h_ = nullptr;
  obs::Gauge* lc_quota_g_ = nullptr;
  obs::Gauge* mode_g_ = nullptr;
  obs::Counter* mode_transitions_c_ = nullptr;
};

}  // namespace mtat

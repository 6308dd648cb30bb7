// Partition Policy Maker (paper §3.2).
//
// Per partitioning interval, PP-M:
//  1. builds the RL state from telemetry — FMem Usage Ratio, FMem Access
//     Ratio, Memory Access Count (normalized by a running maximum);
//  2. closes the previous interval's MDP transition with the Eq. 2 reward
//     (1 - fmem_ratio on SLO compliance, -1 on violation) and trains the
//     SAC agent (Algorithm 1);
//  3. draws the next action alpha, clipped to [-M/2t, +M/2t] (Eq. 1), giving
//     the new LC reservation; and
//  4. splits the remaining FMem across BE workloads with the fairness-driven
//     simulated-annealing search (Algorithm 2) over offline profiles.
//
// An optional SLO guard (on by default) overrides the sampled action with the
// maximum expansion while the SLO is being violated — the "rapid response to
// sudden demand surges" behaviour of §1; the override is recorded as the
// taken action, so the agent still learns from it. The guard is ablatable
// (bench/ablation_mtat).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/sa_partitioner.h"
#include "obs/run_context.h"
#include "rl/sac.h"
#include "telemetry/access_sampler.h"

namespace mtat {

class PartitionPolicyMaker {
 public:
  struct Options {
    SacConfig sac;              ///< RL hyperparameters (Algorithm 1)
    SAOptions sa;               ///< annealing hyperparameters (Algorithm 2)
    bool slo_guard = true;      ///< expand at max rate while SLO is violated
    /// Guard trip point as a fraction of the SLO: at p99 above it the action
    /// is forced to full expansion.
    double guard_trip = 0.9;
    /// Hysteresis: while p99 is above this fraction of the SLO, shrinking is
    /// vetoed (alpha clamped to >= 0) so the reservation doesn't oscillate at
    /// the edge of compliance.
    double guard_hold = 0.30;
    /// Shrink actions are capped to this fraction of the action range per
    /// interval. Growing can use the full Eq. 1 bound (a surge must be
    /// absorbable in one interval), but releasing FMem happens gradually so
    /// the guard_hold veto sees latency rise before the SLO is breached.
    double max_shrink_fraction = 0.05;
    /// Intervals after a guard trip during which shrinking stays vetoed.
    int guard_cooldown_intervals = 3;
    /// Violation memory: after a violation at reservation R under load L, the
    /// reservation is floored at R + one shrink step until the observed load
    /// (Memory Access Count) falls below this fraction of L. Multi-threaded
    /// LC queues have cliff-shaped latency curves that give the p99 veto no
    /// early warning; the remembered floor stops repeated probing into the
    /// cliff. 0 disables.
    double floor_release_fraction = 0.7;
    /// Eq. 2's violation reward. The paper uses -1 per 60 s interval; with
    /// our x60 time compression a violation episode spans many more decision
    /// intervals relative to the load's dwell time, so the penalty is
    /// rescaled to keep the hold-a-buffer vs. absorb-a-violation economics
    /// the paper's agent faces (DESIGN.md §1, ablatable).
    double violation_penalty = -30.0;
    bool manage_be = true;      ///< Full: SA split; LC-Only: leave BE alone
    /// Optional joint performance metric P(M) for the SA search. When set it
    /// replaces the independent per-workload NP model — required once tier
    /// bandwidth is shared, because one tenant's allocation then changes
    /// every tenant's performance (see ColocationSim's contention-aware
    /// objective).
    std::function<double(const std::vector<std::uint64_t>&)> joint_objective;
    /// Ablation (bench/ablation_mtat): replace the SA fairness search with a
    /// plain even split of the residual FMem.
    bool be_even_split = false;
    std::uint64_t min_lc_pages = 0;  ///< floor on the LC reservation
    int gradient_steps_per_interval = 4;
    std::uint64_t seed = 1234;
  };

  /// `fmem_capacity`/`max_alpha_pages` in pages; `be_models` indexed like the
  /// BE quota slots the caller will map the result onto. An external agent
  /// can be supplied so learning persists across simulation phases; otherwise
  /// PP-M owns one.
  PartitionPolicyMaker(std::uint64_t fmem_capacity, std::uint64_t max_alpha_pages,
                       Duration slo, std::vector<BEPerfModel> be_models, const Options& opt,
                       SacAgent* shared_agent = nullptr);

  struct Decision {
    std::uint64_t lc_pages = 0;
    std::vector<std::uint64_t> be_pages;  ///< empty when manage_be is false
    double sa_objective = 0.0;            ///< P(M*) of the BE split
  };

  /// One partitioning interval: consume the interval's telemetry and P99,
  /// train, and produce the next plan. `current_lc_pages` is the enforced
  /// reservation the action applies to.
  Decision decide(std::uint64_t current_lc_pages, double fmem_usage_ratio,
                  const IntervalCounters& lc_counters, Duration lc_p99);

  /// Evaluation mode: act with the policy mean (no exploration noise).
  /// Training continues either way; this only stabilizes measured phases.
  void set_deterministic(bool on) { deterministic_ = on; }
  bool deterministic() const { return deterministic_; }

  SacAgent& agent() { return *agent_; }
  std::uint64_t decisions_made() const { return decisions_; }

  /// RL health signal for the MtatPolicy watchdog: false when the most recent
  /// action was pathological (non-finite or off-manifold, sanitized before
  /// use) or the agent's last losses are non-finite. True before any decision.
  bool healthy() const;
  /// Rewards observed so far (diagnostics / learning curves).
  const std::vector<double>& reward_history() const { return rewards_; }

  /// Wire PP-M to a run's observability: register decision metrics
  /// (decision/violation/guard-trip counts, last reward) with `ctx`'s
  /// registry, record decision/guard-trip events into its trace, and forward
  /// to the agent; nullptr detaches. The context must outlive PP-M.
  void set_run_context(obs::RunContext* ctx);

  /// Checkpoint codec (common/state_archive.h): the agent, the annealing
  /// stream, the guard and floor memory, and the pending transition. Throws
  /// std::logic_error for a shared agent, which is not this PP-M's state.
  void persist(StateArchive& ar);

 private:
  std::vector<double> build_state(double usage_ratio, const IntervalCounters& c);

  std::uint64_t fmem_capacity_;
  std::uint64_t max_alpha_pages_;
  Duration slo_;
  std::vector<BEPerfModel> be_models_;
  Options opt_;
  std::unique_ptr<SacAgent> owned_agent_;
  SacAgent* agent_;
  Rng rng_;

  double max_access_count_ = 1.0;  // running normalizer for the count state
  bool deterministic_ = false;
  double p99_smooth_ = 0.0;  // EWMA of interval p99, for the guard's veto
  int cooldown_left_ = 0;
  std::uint64_t floor_pages_ = 0;      // violation-memory reservation floor
  double floor_count_level_ = 0.0;     // absolute access count when it was set
  bool have_prev_ = false;
  std::vector<double> prev_state_;
  std::vector<double> prev_action_;
  std::uint64_t decisions_ = 0;
  std::vector<double> rewards_;
  bool last_action_ok_ = true;
  obs::TraceRecorder* trace_ = nullptr;
  obs::Counter* decisions_c_ = nullptr;
  obs::Counter* violations_c_ = nullptr;
  obs::Counter* guard_trips_c_ = nullptr;
  obs::Counter* nonfinite_actions_c_ = nullptr;
  obs::Gauge* reward_g_ = nullptr;
  obs::Counter* sac_update_wall_c_ = nullptr;  // wall-exempt
  obs::Counter* sa_wall_c_ = nullptr;          // wall-exempt
};

}  // namespace mtat

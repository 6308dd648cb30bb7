// Partition Policy Enforcer (paper §3.3).
//
// PP-E turns PP-M's per-workload FMem quotas into actual page placement, in
// two modes of continuous work driven by the simulation tick:
//
//  1. Plan execution (§3.3.1, Algorithm 3): when a new partitioning plan
//     arrives, the total discrepancy is relocated across time slices of at
//     most p_max pages, LC movement first, with the LC-induced promotion or
//     demotion demand spread across the BE workloads that owe or are owed
//     pages (greedy largest-remaining-demand pairing approximates the
//     paper's proportional split; exchanges keep both tiers full).
//
//  2. Refinement (§3.3.2, Figure 4b): between plans, each workload's hottest
//     SMem pages are exchanged against its own coldest FMem pages, histogram
//     bins deciding both ends — strictly within the workload's partition, so
//     isolation is preserved. In LC-Only mode the BE side instead competes
//     freely: the globally hottest BE SMem page displaces the globally
//     coldest BE FMem page, emulating frequency-based management of the
//     un-reserved region.
//
// Per-workload exponential histograms come from telemetry; PP-E ages them
// (halves counts) once per partitioning interval, as §3.3.2 specifies.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/run_context.h"
#include "policy/policy.h"
#include "telemetry/page_hotness.h"

namespace mtat {

class PartitionEnforcer {
 public:
  struct Options {
    /// Algorithm 3's p_max: pages relocated per time slice (= per tick).
    std::uint64_t p_max = 4096;
    /// Refinement exchanges per tick, per workload.
    std::size_t refine_cap = 512;
    /// Minimum bin advantage before a refinement exchange fires. 2 means a
    /// single stray sample (bin 1) cannot displace a resident page — vital
    /// for heavy-tailed access where one-hit-wonder pages are abundant.
    int refine_min_gap = 2;
    /// Full MTAT isolates each BE workload's partition; LC-Only lets BE
    /// workloads compete for whatever the LC reservation leaves.
    bool isolate_be = true;
    /// Ablation knobs (bench/ablation_mtat): Algorithm 3's LC-first slice
    /// ordering, and §3.3.2's periodic histogram aging.
    bool lc_first = true;
    bool enable_aging = true;
    /// Halve counts every this many partitioning intervals (see
    /// age_histograms' note on time compression).
    int age_every_intervals = 4;
    /// §7 extension: when FMem's contention factor exceeds this threshold,
    /// refinement stops promoting into the saturated tier (piling more hot
    /// pages onto saturated bandwidth only lengthens every access). 0
    /// disables the check.
    double bandwidth_backoff_factor = 0.0;
    /// Graceful degradation (DESIGN.md §12): give up on a plan whose backlog
    /// has made no progress for this many consecutive ticks (e.g. a total
    /// migration outage) instead of retrying it forever — the deltas are
    /// zeroed, refinement resumes, and the next PP-M interval plans afresh
    /// against wherever placement actually is. Off by default; armed by
    /// MtatPolicy's watchdog (enable_plan_abandonment) when faults are live.
    bool abandon_stalled_plans = false;
    int abandon_after_ticks = 32;
  };

  PartitionEnforcer(const PolicyContext& ctx, Options opt);

  PartitionEnforcer(const PartitionEnforcer&) = delete;
  PartitionEnforcer& operator=(const PartitionEnforcer&) = delete;

  /// Install a new plan: target FMem pages per tenant (indexed like
  /// ctx.tenants). In LC-Only mode only the LC entry is honored.
  void set_plan(const std::vector<std::uint64_t>& quotas);

  /// One time slice of plan execution and/or refinement.
  void on_tick();

  /// Account one partitioning interval and halve the histogram counts every
  /// `age_every_intervals` calls. §3.3.2 ages once per interval, but the
  /// paper's interval is 60 s of sample accumulation; under our x60 time
  /// compression, halving every compressed interval would erase the counts
  /// that distinguish warm pages from one-off samples (DESIGN.md §6).
  void age_histograms();

  /// Arm or disarm stalled-plan abandonment at runtime (the watchdog path).
  void enable_plan_abandonment(bool on) { opt_.abandon_stalled_plans = on; }

  bool plan_active() const;
  std::uint64_t quota(std::size_t idx) const { return quota_[idx]; }
  std::int64_t remaining_delta(std::size_t idx) const { return delta_[idx]; }
  PageHotness& histogram(std::size_t idx) { return *hist_[idx]; }
  std::size_t histogram_count() const { return hist_.size(); }

  /// Wire PP-E to a run's observability: register enforcement metrics (plans
  /// installed, relocation backlog) with `ctx`'s registry and record plan
  /// events/spans into its trace; nullptr detaches. The context must outlive
  /// PP-E.
  void set_run_context(obs::RunContext* ctx);

  /// Checkpoint codec (common/state_archive.h): quotas, the open plan, the
  /// aging phase and every tenant's histogram.
  void persist(StateArchive& ar);

 private:
  // Candidate selection within one tenant's pages.
  PageId promote_candidate(std::size_t idx) const;  // SMem page worth promoting
  PageId demote_candidate(std::size_t idx) const;   // FMem victim
  // Globally best candidates across BE tenants (fallback / LC-Only mode).
  std::size_t hottest_be_tenant() const;
  std::size_t coldest_be_tenant() const;

  /// One page up for `pi` paired with one page down for `di`; spends budget.
  bool exchange_pair(std::size_t pi, std::size_t di);

  void execute_plan_slice();
  void refine();

  PolicyContext ctx_;
  Options opt_;
  std::size_t lc_idx_ = 0;
  std::vector<std::uint64_t> quota_;
  std::vector<std::int64_t> delta_;
  int intervals_since_aging_ = 0;
  std::vector<std::unique_ptr<PageHotness>> hist_;
  SimTime plan_start_ts_ = 0;
  double plan_start_pages_ = 0.0;
  bool plan_was_active_ = false;
  int stalled_ticks_ = 0;
  obs::TraceRecorder* trace_ = nullptr;
  obs::Counter* plans_c_ = nullptr;
  obs::Counter* plans_abandoned_c_ = nullptr;
  obs::Gauge* plan_pages_g_ = nullptr;
};

}  // namespace mtat

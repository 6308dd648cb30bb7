// Bandwidth-budgeted page migration.
//
// The paper bounds reconfiguration by the tiered-memory subsystem's data
// movement capacity M (bytes/s): an action must complete within one policy
// interval t, and because promotion and demotion happen simultaneously the
// per-direction bound is M/2t (Eq. 1). MigrationEngine enforces exactly that:
// the simulation refills a page budget each interval from the configured
// bandwidth, and every policy (MTAT and baselines alike) spends from it when
// it moves pages, so no policy can cheat by migrating instantaneously.
//
// N-tier accounting: each migration link k (connecting tiers k and k+1)
// carries its own budget and fractional carry, refilled from that link's
// bandwidth. A one-step promote/demote spends on the one link it crosses; an
// exchange between tiers a < b spends on every link in [a, b). At two tiers
// there is a single link and the arithmetic reduces exactly to the old
// scalar budget.
//
// When a faults::FaultInjector is attached (via the RunContext), the engine
// is also where migration misbehaviour lands: injected aborts burn the copy
// bandwidth without moving the page (Nomad-style abort; exchanges roll the
// half-copied page back), scheduled collapses scale the refill (optionally
// per-link), and a streak of aborts opens a capped exponential backoff
// window during which attempts fail fast — the retry after the window is
// counted and traced. See DESIGN.md §12.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "common/units.h"
#include "faults/fault_injector.h"
#include "mem/tiered_memory.h"
#include "obs/names.h"
#include "obs/run_context.h"

namespace mtat {

class MigrationEngine {
 public:
  struct Config {
    /// Total migration bandwidth (promotion + demotion combined), bytes/s.
    /// The paper measures PP-E consuming ~4 GB/s on a 25.6 GB/s channel.
    /// This is link 0's bandwidth (Eq. 1's M) and the default for any link
    /// not covered by `link_bandwidth_bytes_per_sec`.
    double bandwidth_bytes_per_sec = 4.0 * 1024 * 1024 * 1024;
    /// Optional per-link override, index k = link between tiers k and k+1
    /// (topology-driven runs fill this from the TierSpec vector). Links past
    /// the end of this vector fall back to bandwidth_bytes_per_sec.
    std::vector<double> link_bandwidth_bytes_per_sec{};
  };

  MigrationEngine(TieredMemory& mem, const Config& cfg) : mem_(&mem), cfg_(cfg) {
    if (cfg.bandwidth_bytes_per_sec <= 0)
      throw std::invalid_argument("MigrationEngine: bandwidth must be positive");
    for (const double b : cfg.link_bandwidth_bytes_per_sec)
      if (b <= 0) throw std::invalid_argument("MigrationEngine: link bandwidth must be positive");
    const std::size_t links = mem.link_count();
    link_bw_.resize(links);
    for (std::size_t k = 0; k < links; ++k)
      link_bw_[k] = k < cfg.link_bandwidth_bytes_per_sec.size()
                        ? cfg.link_bandwidth_bytes_per_sec[k]
                        : cfg.bandwidth_bytes_per_sec;
    budget_.assign(links, 0);
    carry_.assign(links, 0.0);
  }

  /// Wire the engine to a run's observability: register migration counters
  /// (pages moved, promotions/demotions/exchanges) with `ctx`'s registry and
  /// record migration spans into its trace. nullptr detaches. The caller
  /// guarantees the context outlives the engine.
  void set_run_context(obs::RunContext* ctx) {
    if (ctx == nullptr) {
      moved_c_ = promoted_c_ = demoted_c_ = exchanged_c_ = nullptr;
      moved_per_tick_h_ = nullptr;
      trace_ = nullptr;
      faults_ = nullptr;
      failures_c_ = rollbacks_c_ = retries_c_ = backoff_ticks_c_ = nullptr;
      link_moved_c_.fill(nullptr);
      return;
    }
    obs::MetricsRegistry& reg = ctx->metrics();
    moved_c_ = &reg.counter(obs::names::kMigrationPagesMoved);
    promoted_c_ = &reg.counter(obs::names::kMigrationPromotions);
    demoted_c_ = &reg.counter(obs::names::kMigrationDemotions);
    exchanged_c_ = &reg.counter(obs::names::kMigrationExchanges);
    moved_per_tick_h_ = &reg.histogram(obs::names::kMigrationPagesPerTick);
    // Per-link traffic counters only exist beyond two tiers, so two-tier
    // metric dumps are unchanged (link 0 == migration.pages_moved there).
    if (budget_.size() > 1) {
      const char* const kLinkNames[kMaxTrackedLinks] = {
          obs::names::kMigrationLink0PagesMoved, obs::names::kMigrationLink1PagesMoved,
          obs::names::kMigrationLink2PagesMoved};
      for (std::size_t k = 0; k < kMaxTrackedLinks; ++k)
        link_moved_c_[k] = k < budget_.size() ? &reg.counter(kLinkNames[k]) : nullptr;
    }
    trace_ = &ctx->trace();
    faults_ = ctx->faults();
    if (faults_ != nullptr) {
      failures_c_ = &reg.counter(obs::names::kFaultMigrationFailures);
      rollbacks_c_ = &reg.counter(obs::names::kFaultMigrationRollbacks);
      retries_c_ = &reg.counter(obs::names::kMigrationRetries);
      backoff_ticks_c_ = &reg.counter(obs::names::kMigrationBackoffTicks);
    }
  }

  /// Refills every link's page budget for an interval of length `dt`.
  /// Fractional pages carry over so long-run throughput matches the
  /// configured bandwidth regardless of tick size.
  void begin_interval(Duration dt) {
    // Close out the previous slice for observability: a span in the trace
    // when any pages moved (the ring stays quiet across idle slices), and a
    // distribution sample either way.
    if (moved_per_tick_h_ != nullptr) moved_per_tick_h_->record(moved_this_interval_);
    if (trace_ != nullptr && moved_this_interval_ > 0 && trace_->enabled())
      trace_->complete(obs::names::kEvMigration, obs::names::kCatMem, last_begin_ts_,
                       last_dt_, "pages", static_cast<double>(moved_this_interval_));
    last_begin_ts_ = trace_ != nullptr ? trace_->now() : 0;
    last_dt_ = dt;
    // An injected bandwidth collapse scales this tick's refill (per link,
    // when the plan targets one); the carry still accumulates the (reduced)
    // fractional remainder, so throughput integrates the fault exactly.
    for (std::size_t k = 0; k < budget_.size(); ++k) {
      const double refill_factor =
          faults_ != nullptr ? faults_->migration_bandwidth_factor(static_cast<int>(k)) : 1.0;
      carry_[k] += refill_factor * link_bw_[k] * to_seconds(dt) /
                   static_cast<double>(kPageSize);
      const auto whole = static_cast<std::uint64_t>(carry_[k]);
      budget_[k] = whole;
      carry_[k] -= static_cast<double>(whole);
    }
    moved_this_interval_ = 0;
    if (backoff_remaining_ > 0) {
      --backoff_remaining_;
      backoff_ticks_c_->inc();
      if (backoff_remaining_ == 0) retry_pending_ = true;
    }
  }

  /// Pages still movable across link 0 (the fastest-tier boundary every
  /// promotion/demotion plan drains through) in the current interval.
  std::uint64_t budget_pages() const { return budget_[0]; }
  /// Pages still movable across link `k` this interval.
  std::uint64_t link_budget_pages(std::size_t k) const { return budget_[k]; }
  std::size_t link_count() const { return budget_.size(); }

  /// Maximum pages movable per direction in an interval of length `t` —
  /// the bound on |α| in Eq. 1 (M / 2t, expressed in pages; link 0's M).
  std::uint64_t max_pages_per_direction(Duration t) const {
    return static_cast<std::uint64_t>(cfg_.bandwidth_bytes_per_sec * to_seconds(t) /
                                      (2.0 * static_cast<double>(kPageSize)));
  }

  /// Move one page one tier toward the fastest (tier k -> k-1). Fails
  /// (returns false) when the page is already in tier 0, the link is out of
  /// budget, or the destination tier is full.
  bool promote(PageId p) {
    const TierId from = mem_->tier_of(p);
    if (from == kFastestTier) return false;
    return step(p, from, static_cast<TierId>(from - 1));
  }

  /// Move one page one tier toward the slowest (tier k -> k+1) — the unit
  /// step of a cascaded demotion. Symmetric to promote().
  bool demote(PageId p) {
    const TierId from = mem_->tier_of(p);
    if (from == mem_->slowest_tier()) return false;
    return step(p, from, static_cast<TierId>(from + 1));
  }

  /// Promote `p` link by link until it reaches the fastest tier, stopping at
  /// the first failed step. Returns true iff the page ended in tier 0.
  bool promote_to_fastest(PageId p) {
    while (mem_->tier_of(p) != kFastestTier)
      if (!promote(p)) return false;
    return true;
  }

  /// Atomically swap a slower page into a faster tier and a faster page out.
  /// The pages may be any number of links apart; the swap costs two pages of
  /// budget on every link between them, and succeeds even when both tiers
  /// are full.
  bool exchange(PageId promote_page, PageId demote_page) {
    const TierId tp = mem_->tier_of(promote_page);
    const TierId td = mem_->tier_of(demote_page);
    if (tp <= td) return false;
    for (std::size_t k = td; k < tp; ++k)
      if (budget_[k] < 2) return false;
    if (faults_ != nullptr && !attempt_allowed(td, tp, 2, /*is_exchange=*/true)) return false;
    mem_->exchange(promote_page, demote_page);
    note_success();
    spend(td, tp, 2);
    if (exchanged_c_ != nullptr) exchanged_c_->inc();
    return true;
  }

  /// True while injected failures have the engine in a backoff window
  /// (attempts fail fast without consuming budget).
  bool in_backoff() const { return backoff_remaining_ > 0; }

  std::uint64_t pages_moved_this_interval() const { return moved_this_interval_; }
  std::uint64_t total_pages_moved() const { return total_moved_; }
  Bytes total_bytes_moved() const { return total_moved_ * kPageSize; }
  const Config& config() const { return cfg_; }
  double link_bandwidth(std::size_t k) const { return link_bw_[k]; }

  /// Checkpoint codec (common/state_archive.h): per-link budgets and refill
  /// carries, the interval and lifetime move counts, and the fault backoff
  /// ladder (which only a run with a fault injector can be on).
  template <class Ar>
  void persist(Ar& ar) {
    ar.fixed(budget_);
    ar.fixed(carry_);
    ar(moved_this_interval_, total_moved_, last_begin_ts_, last_dt_, failure_streak_,
       backoff_level_, backoff_remaining_, retry_pending_);
    ar.check(faults_ != nullptr || (backoff_remaining_ == 0 && !retry_pending_),
             "migration backoff state without a fault injector");
  }

 private:
  /// One-link move of `p` from tier `from` to the adjacent tier `to`.
  bool step(PageId p, TierId from, TierId to) {
    const std::size_t link = std::min(from, to);
    if (budget_[link] < 1) return false;
    if (faults_ != nullptr) {
      // Only otherwise-valid attempts can suffer an injected abort, so the
      // fault stream is not consumed (and budget not burned) by requests the
      // substrate would have rejected anyway.
      if (mem_->free_pages(to) == 0) return false;
      if (!attempt_allowed(link, link + 1, 1, /*is_exchange=*/false)) return false;
    }
    if (!mem_->migrate(p, to)) return false;
    note_success();
    spend(link, link + 1, 1);
    if (to < from) {
      if (promoted_c_ != nullptr) promoted_c_->inc();
    } else {
      if (demoted_c_ != nullptr) demoted_c_->inc();
    }
    return true;
  }

  /// Fault gate for an otherwise-valid attempt (faults_ != nullptr, every
  /// involved link's budget covers `cost`). Returns false when the attempt
  /// must abort: fail-fast during a backoff window, or an injected abort —
  /// which consumes the copy bandwidth (Nomad's wasted-copy cost) on every
  /// link in [lo, hi) without moving anything, and for exchanges
  /// additionally represents rolling the half-copied page back. One fault
  /// draw per attempt, however many links it spans. Four consecutive aborts
  /// open a capped exponential backoff window.
  bool attempt_allowed(std::size_t lo, std::size_t hi, std::uint64_t cost, bool is_exchange) {
    if (backoff_remaining_ > 0) return false;
    if (retry_pending_) {
      // First attempt after a backoff window drained.
      retry_pending_ = false;
      retries_c_->inc();
      if (trace_ != nullptr && trace_->enabled())
        trace_->instant(obs::names::kEvMigrationRetry, obs::names::kCatMem);
    }
    if (!faults_->fail_migration()) return true;
    for (std::size_t k = lo; k < hi; ++k) budget_[k] -= cost;
    failures_c_->inc();
    if (is_exchange) rollbacks_c_->inc();
    if (trace_ != nullptr && trace_->enabled())
      trace_->instant(obs::names::kEvMigrationFault, obs::names::kCatMem, "pages",
                      static_cast<double>(cost), "rollback", is_exchange ? 1.0 : 0.0);
    if (++failure_streak_ >= kBackoffThreshold) {
      failure_streak_ = 0;
      backoff_remaining_ = std::min<std::uint64_t>(2ull << backoff_level_, kBackoffCapTicks);
      backoff_level_ = std::min(backoff_level_ + 1, 5);
      if (trace_ != nullptr && trace_->enabled())
        trace_->instant(obs::names::kEvMigrationBackoff, obs::names::kCatMem, "ticks",
                        static_cast<double>(backoff_remaining_));
    }
    return false;
  }

  void note_success() {
    failure_streak_ = 0;
    backoff_level_ = 0;
  }

  /// Spend `pages` of budget on every link in [lo, hi); traffic counters
  /// track per-link page copies, so a two-link exchange counts each copy on
  /// each link it crosses.
  void spend(std::size_t lo, std::size_t hi, std::uint64_t pages) {
    for (std::size_t k = lo; k < hi; ++k) {
      budget_[k] -= pages;
      moved_this_interval_ += pages;
      total_moved_ += pages;
      if (moved_c_ != nullptr) moved_c_->inc(static_cast<double>(pages));
      if (k < kMaxTrackedLinks && link_moved_c_[k] != nullptr)
        link_moved_c_[k]->inc(static_cast<double>(pages));
    }
  }

  // Consecutive injected aborts before a backoff window opens, and the cap on
  // the exponentially growing window length (in engine intervals).
  static constexpr int kBackoffThreshold = 4;
  static constexpr std::uint64_t kBackoffCapTicks = 64;
  // Links with a dedicated traffic counter in obs/names.h (enough for the
  // four-tier DRAM/CXL/NVM/remote sweeps; deeper topologies still budget
  // correctly, they just fold into migration.pages_moved).
  static constexpr std::size_t kMaxTrackedLinks = 3;

  TieredMemory* mem_;
  Config cfg_;
  std::vector<double> link_bw_;        ///< resolved per-link bandwidth, bytes/s
  std::vector<std::uint64_t> budget_;  ///< per-link pages left this interval
  std::vector<double> carry_;          ///< per-link fractional refill carry
  std::uint64_t moved_this_interval_ = 0;
  std::uint64_t total_moved_ = 0;
  SimTime last_begin_ts_ = 0;
  Duration last_dt_ = 0;
  int failure_streak_ = 0;
  int backoff_level_ = 0;
  std::uint64_t backoff_remaining_ = 0;
  bool retry_pending_ = false;
  obs::TraceRecorder* trace_ = nullptr;
  faults::FaultInjector* faults_ = nullptr;
  obs::Counter* moved_c_ = nullptr;
  obs::Counter* promoted_c_ = nullptr;
  obs::Counter* demoted_c_ = nullptr;
  obs::Counter* exchanged_c_ = nullptr;
  obs::Counter* failures_c_ = nullptr;       // set iff faults_ != nullptr
  obs::Counter* rollbacks_c_ = nullptr;      // set iff faults_ != nullptr
  obs::Counter* retries_c_ = nullptr;        // set iff faults_ != nullptr
  obs::Counter* backoff_ticks_c_ = nullptr;  // set iff faults_ != nullptr
  std::array<obs::Counter*, kMaxTrackedLinks> link_moved_c_{};  // set iff > 2 tiers
  obs::Histogram* moved_per_tick_h_ = nullptr;
};

}  // namespace mtat

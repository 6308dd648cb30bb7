// TPP-like baseline (Maruf et al., ASPLOS'23).
//
// Decision core reimplemented from the paper: pages are promoted on access
// faults rather than by frequency ranking — an SMem page becomes a promotion
// candidate once it is seen again while on the "active" shadow list (TPP's
// two-touch NUMA-hint-fault filter) — and FMem is reclaimed to a free-page
// watermark by demoting pages from the cold end of an LRU approximation
// (clock with reference bits fed by the sampled access stream). Like the real
// system it is workload-blind and reactive: promotion happens only *after*
// faults occur, which is precisely the "no timely benefit" failure mode §5.1
// attributes to it for LC workloads, and its constant fault-driven churn is
// why the paper measures TPP below even SMEM_ALL.
#pragma once

#include <deque>
#include <vector>

#include "policy/policy.h"

namespace mtat {

class TppPolicy : public TieringPolicy {
 public:
  struct Options {
    /// Target free-FMem fraction maintained by watermark demotion (TPP keeps
    /// headroom so promotions always have somewhere to land).
    double free_watermark = 0.02;
    /// A page sampled on SMem enters the shadow active list; a second sample
    /// within this many ticks qualifies it for promotion.
    int active_window_ticks = 100;
    std::size_t max_promotions_per_tick = 4096;
  };

  explicit TppPolicy(const PolicyContext& ctx);
  TppPolicy(const PolicyContext& ctx, Options opt);

  std::string name() const override { return "tpp"; }
  void on_tick(SimTime now, Duration dt) override;
  void on_interval(SimTime now, Duration interval, Duration lc_p99) override;
  void persist(StateArchive& ar) override;

 private:
  void on_sample(PageId p);

  PolicyContext ctx_;
  Options opt_;
  // Shadow state per page: last-seen tick for slower-tier pages (two-touch
  // filter), reference bit consulted by the page's tier's reclaim clock.
  std::vector<std::int64_t> last_seen_tick_;
  std::vector<std::uint8_t> ref_bit_;
  std::deque<PageId> promote_queue_;
  std::vector<std::uint8_t> queued_;
  /// One clock hand per demoting tier (every tier but the slowest).
  std::vector<std::uint64_t> clock_hand_;
  std::int64_t tick_no_ = 0;
};

}  // namespace mtat

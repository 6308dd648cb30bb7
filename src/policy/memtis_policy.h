// MEMTIS-like baseline (Lee et al., SOSP'23).
//
// Decision core reimplemented from the paper: one *unified* page-access
// histogram across all tenants (exponential bins, sampled counts), a hot
// threshold sized so the pages above it fit FMem, continuous migration of
// hot SMem pages into FMem displacing the coldest FMem pages, and periodic
// count cooling (halving). Deliberately workload-blind — that blindness is
// the phenomenon §2.2 demonstrates: steady BE access streams dominate the
// histogram, LC pages classify as cold, and LC data ends up in SMem.
// (MEMTIS's huge-page split/collapse machinery is out of scope; DESIGN.md §1.)
#pragma once

#include <memory>

#include "policy/policy.h"
#include "telemetry/page_hotness.h"

namespace mtat {

class MemtisPolicy : public TieringPolicy {
 public:
  struct Options {
    /// Cool (halve) the histogram every this many intervals.
    int cooling_period_intervals = 2;
    /// Exchange batch cap per tick (beyond the engine's bandwidth budget).
    std::size_t max_exchanges_per_tick = 4096;
    /// Promote only when the SMem page's bin exceeds the FMem victim's bin
    /// by at least this much (hysteresis against ping-ponging).
    int min_bin_gap = 1;
  };

  explicit MemtisPolicy(const PolicyContext& ctx);
  MemtisPolicy(const PolicyContext& ctx, Options opt);

  std::string name() const override { return "memtis"; }
  void on_tick(SimTime now, Duration dt) override;
  void on_interval(SimTime now, Duration interval, Duration lc_p99) override;
  void persist(StateArchive& ar) override;

  const PageHotness& histogram() const { return hist_; }

 private:
  PolicyContext ctx_;
  Options opt_;
  PageHotness hist_;  // unified, all tenants
  int intervals_since_cooling_ = 0;
  // Scratch for the per-tick histogram pulls (capacity persists across ticks).
  std::vector<PageId> hot_;
  std::vector<PageId> victims_;
};

}  // namespace mtat

// DAMON-style adaptive region monitoring (Park et al., Middleware'19 —
// reference [29] of the paper — as extended to tiering by Telescope [26]).
//
// Instead of per-page counters, the address range is tracked as a bounded
// set of contiguous regions, each with one access counter. Regions that turn
// out hot are split to sharpen resolution; adjacent regions with similar
// activity are merged to reclaim budget — so monitoring overhead is O(max
// regions), independent of footprint. This is the telemetry alternative the
// paper's related work contrasts with PEBS-style page sampling: cheaper, but
// coarser — a region's heat smears over every page in it.
//
// Offered here as an alternative monitor over the same sampled access stream
// (samples are attributed to regions by binary search) so policies can be
// studied under region-granular visibility.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace mtat {

class StateArchive;

class RegionMonitor {
 public:
  struct Region {
    std::uint64_t begin = 0;  ///< first virtual page (inclusive)
    std::uint64_t end = 0;    ///< last virtual page (exclusive)
    std::uint32_t count = 0;  ///< sampled accesses this aggregation window

    template <class Ar>
    void persist(Ar& ar) {
      ar(begin, end, count);
    }

    std::uint64_t pages() const { return end - begin; }
    /// Accesses per page — the density regions are ranked by.
    double density() const {
      return pages() == 0 ? 0.0 : static_cast<double>(count) / static_cast<double>(pages());
    }
  };

  struct Options {
    std::size_t min_regions = 10;
    std::size_t max_regions = 100;
    /// Merge adjacent regions whose density differs by at most this factor.
    double merge_ratio = 1.5;
    /// Split a region when its count exceeds this share of the window total.
    double split_share = 0.05;
    std::uint64_t seed = 99;
  };

  /// Monitors virtual pages [0, footprint_pages).
  RegionMonitor(std::uint64_t footprint_pages, Options opt);

  /// Attribute one sampled access to the region holding `vpage`.
  void record(std::uint64_t vpage);

  /// End an aggregation window: split hot regions (at a random point, as
  /// DAMON does), merge similar neighbours, reset counts. Returns the
  /// window's region snapshot, hottest density first.
  std::vector<Region> aggregate();

  /// Current regions in address order (counts are for the open window).
  const std::vector<Region>& regions() const { return regions_; }
  std::uint64_t footprint_pages() const { return footprint_; }

  /// Checkpoint codec (common/state_archive.h): the split/merge stream's
  /// cursor and the current regions, which must tile the footprint.
  void persist(StateArchive& ar);

 private:
  std::size_t region_of(std::uint64_t vpage) const;  // binary search
  void split_pass(std::uint64_t window_total);
  void merge_pass();

  std::uint64_t footprint_;
  Options opt_;
  Rng rng_;
  std::vector<Region> regions_;
};

}  // namespace mtat

// Region-granular tiering baseline in the style of DAMON-based systems
// (Telescope, USENIX ATC'24 — reference [26] of the paper): hotness is
// tracked per *region* by the adaptive RegionMonitor rather than per page,
// and whole regions are promoted/demoted by density rank.
//
// The point of including it: region telemetry costs O(regions) instead of
// O(pages) — the terabyte-footprint argument of Telescope — but a region's
// heat smears over all its pages, so an LC tenant's sparse-but-critical
// pages are even easier to misclassify than under page-granular MEMTIS.
// Workload-blind by design, like the other frequency-driven baselines.
#pragma once

#include <memory>
#include <vector>

#include "policy/policy.h"
#include "telemetry/region_monitor.h"

namespace mtat {

class DamonPolicy : public TieringPolicy {
 public:
  struct Options {
    RegionMonitor::Options monitor;
    /// Cap on pages migrated toward the wanted set per tick (on top of the
    /// engine's bandwidth budget).
    std::size_t max_moves_per_tick = 4096;
  };

  explicit DamonPolicy(const PolicyContext& ctx);
  DamonPolicy(const PolicyContext& ctx, Options opt);

  std::string name() const override { return "damon"; }
  void on_tick(SimTime now, Duration dt) override;
  void on_interval(SimTime now, Duration interval, Duration lc_p99) override;
  void persist(StateArchive& ar) override;

  const RegionMonitor& monitor(std::size_t tenant) const { return *monitors_[tenant]; }

 private:
  struct RankedRegion {
    std::size_t tenant = 0;
    std::uint64_t begin = 0, end = 0;  // vpages within the tenant
    double density = 0;

    template <class Ar>
    void persist(Ar& ar) {
      ar(tenant, begin, end, density);
    }
  };

  PageId page_at(std::size_t tenant, std::uint64_t vpage) const {
    return first_page_[tenant] + static_cast<PageId>(vpage);
  }

  PolicyContext ctx_;
  Options opt_;
  std::vector<std::unique_ptr<RegionMonitor>> monitors_;
  std::vector<PageId> first_page_;
  // The interval's plan: regions to pull into FMem (hottest first) and the
  // eviction pool (coldest first), with incremental cursors.
  std::vector<RankedRegion> wanted_;
  std::vector<RankedRegion> evictable_;
  std::size_t want_idx_ = 0;
  std::uint64_t want_page_ = 0;
  std::size_t evict_idx_ = 0;
  std::uint64_t evict_page_ = 0;
};

}  // namespace mtat

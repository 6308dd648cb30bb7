#include "telemetry/region_monitor.h"

#include <algorithm>
#include <stdexcept>

#include "common/state_archive.h"

namespace mtat {

RegionMonitor::RegionMonitor(std::uint64_t footprint_pages, Options opt)
    : footprint_(footprint_pages), opt_(opt), rng_(opt.seed) {
  if (footprint_pages == 0) throw std::invalid_argument("RegionMonitor: empty footprint");
  if (opt.min_regions == 0 || opt.max_regions < opt.min_regions)
    throw std::invalid_argument("RegionMonitor: bad region bounds");
  // Start with an even partition into min_regions pieces (or fewer when the
  // footprint is tiny).
  const std::uint64_t n = std::min<std::uint64_t>(opt.min_regions, footprint_pages);
  for (std::uint64_t i = 0; i < n; ++i) {
    Region r;
    r.begin = footprint_pages * i / n;
    r.end = footprint_pages * (i + 1) / n;
    regions_.push_back(r);
  }
}

std::size_t RegionMonitor::region_of(std::uint64_t vpage) const {
  // First region whose end exceeds vpage.
  std::size_t lo = 0, hi = regions_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (regions_[mid].end <= vpage)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

void RegionMonitor::record(std::uint64_t vpage) {
  if (vpage >= footprint_) throw std::out_of_range("RegionMonitor: vpage beyond footprint");
  regions_[region_of(vpage)].count++;
}

void RegionMonitor::split_pass(std::uint64_t window_total) {
  if (window_total == 0) return;
  std::vector<Region> next;
  next.reserve(regions_.size() + 8);
  std::size_t splits = 0;
  for (const Region& r : regions_) {
    const bool hot =
        static_cast<double>(r.count) > opt_.split_share * static_cast<double>(window_total);
    if (hot && r.pages() >= 2 && regions_.size() + splits < opt_.max_regions && ++splits) {
      // DAMON splits at a random offset so stable hot subranges are found
      // without assuming any alignment.
      const std::uint64_t cut = r.begin + 1 + rng_.next_below(r.pages() - 1);
      Region a = r, b = r;
      a.end = cut;
      b.begin = cut;
      // The window's count is apportioned by size; the next window resolves
      // which half is genuinely hot.
      a.count = static_cast<std::uint32_t>(static_cast<double>(r.count) *
                                           static_cast<double>(a.pages()) /
                                           static_cast<double>(r.pages()));
      b.count = r.count - a.count;
      next.push_back(a);
      next.push_back(b);
    } else {
      next.push_back(r);
    }
  }
  regions_ = std::move(next);
}

void RegionMonitor::merge_pass() {
  if (regions_.size() <= opt_.min_regions) return;
  std::vector<Region> next;
  next.reserve(regions_.size());
  next.push_back(regions_.front());
  for (std::size_t i = 1; i < regions_.size(); ++i) {
    Region& prev = next.back();
    const Region& cur = regions_[i];
    const double lo = std::min(prev.density(), cur.density());
    const double hi = std::max(prev.density(), cur.density());
    const bool similar = hi <= lo * opt_.merge_ratio || hi == 0.0;
    if (similar && next.size() + (regions_.size() - i) > opt_.min_regions) {
      prev.count += cur.count;
      prev.end = cur.end;
    } else {
      next.push_back(cur);
    }
  }
  regions_ = std::move(next);
}

std::vector<RegionMonitor::Region> RegionMonitor::aggregate() {
  std::uint64_t total = 0;
  for (const Region& r : regions_) total += r.count;
  std::vector<Region> snapshot = regions_;
  std::sort(snapshot.begin(), snapshot.end(),
            [](const Region& a, const Region& b) { return a.density() > b.density(); });
  // Merge before splitting, as DAMON does: a freshly split pair inherits
  // identical densities (the count is apportioned by size), so splitting
  // last lets the halves survive into the next window, where real traffic
  // differentiates them.
  merge_pass();
  split_pass(total);
  for (Region& r : regions_) r.count = 0;
  return snapshot;
}

void RegionMonitor::persist(StateArchive& ar) {
  ar(rng_, regions_);
  std::uint64_t at = 0;
  for (const Region& r : regions_) {
    ar.check(r.begin == at && r.end >= r.begin, "regions do not tile the footprint");
    at = r.end;
  }
  ar.check(!regions_.empty() && at == footprint_, "regions do not tile the footprint");
}

}  // namespace mtat

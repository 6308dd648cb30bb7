#include "policy/damon_policy.h"

#include <algorithm>

#include "common/state_archive.h"

namespace mtat {

DamonPolicy::DamonPolicy(const PolicyContext& ctx) : DamonPolicy(ctx, Options{}) {}

DamonPolicy::DamonPolicy(const PolicyContext& ctx, Options opt) : ctx_(ctx), opt_(opt) {
  for (std::size_t i = 0; i < ctx.tenants.size(); ++i) {
    const auto& pages = ctx.mem->pages_of(ctx.tenants[i].id);
    first_page_.push_back(pages.front());
    RegionMonitor::Options mo = opt_.monitor;
    mo.seed = opt_.monitor.seed + i * 101;
    monitors_.push_back(std::make_unique<RegionMonitor>(pages.size(), mo));
  }
  // Route the sampled access stream into the per-tenant monitors.
  ctx_.sampler->add_callback([this](WorkloadId w, PageId p, AccessKind) {
    for (std::size_t i = 0; i < ctx_.tenants.size(); ++i) {
      if (ctx_.tenants[i].id != w) continue;
      const std::uint64_t vpage = p - first_page_[i];
      if (vpage < monitors_[i]->footprint_pages()) monitors_[i]->record(vpage);
      return;
    }
  });
}

void DamonPolicy::on_interval(SimTime, Duration, Duration) {
  // Rank every tenant's regions by access density and split them into the
  // set that should occupy FMem (hottest, up to capacity) and the eviction
  // pool (everything else, coldest first).
  std::vector<RankedRegion> all;
  for (std::size_t t = 0; t < monitors_.size(); ++t)
    for (const auto& r : monitors_[t]->aggregate())
      all.push_back(RankedRegion{t, r.begin, r.end, r.density()});
  std::sort(all.begin(), all.end(),
            [](const RankedRegion& a, const RankedRegion& b) { return a.density > b.density; });

  wanted_.clear();
  evictable_.clear();
  std::uint64_t budget = ctx_.mem->capacity(kFastestTier);
  for (const RankedRegion& r : all) {
    const std::uint64_t size = r.end - r.begin;
    if (r.density > 0.0 && size <= budget) {
      wanted_.push_back(r);
      budget -= size;
    } else {
      evictable_.push_back(r);
    }
  }
  std::reverse(evictable_.begin(), evictable_.end());  // coldest first
  want_idx_ = want_page_ = evict_idx_ = evict_page_ = 0;
}

void DamonPolicy::on_tick(SimTime, Duration) {
  // Walk the wanted regions, pulling their SMem-resident pages into FMem;
  // victims come from the eviction pool, coldest regions first.
  std::size_t moves = 0;
  while (moves < opt_.max_moves_per_tick && want_idx_ < wanted_.size() &&
         ctx_.engine->budget_pages() >= 2) {
    const RankedRegion& w = wanted_[want_idx_];
    if (want_page_ == 0) want_page_ = w.begin;
    if (want_page_ >= w.end) {
      ++want_idx_;
      want_page_ = 0;
      continue;
    }
    const PageId up = page_at(w.tenant, want_page_++);
    if (ctx_.mem->tier_of(up) == kFastestTier) continue;
    if (ctx_.mem->free_pages(kFastestTier) > 0) {
      if (!ctx_.engine->promote_to_fastest(up)) return;
      ++moves;
      continue;
    }
    // Find the next evictable FMem-resident page.
    PageId down = kInvalidPage;
    while (evict_idx_ < evictable_.size()) {
      const RankedRegion& e = evictable_[evict_idx_];
      if (evict_page_ == 0) evict_page_ = e.begin;
      if (evict_page_ >= e.end) {
        ++evict_idx_;
        evict_page_ = 0;
        continue;
      }
      const PageId candidate = page_at(e.tenant, evict_page_++);
      if (ctx_.mem->tier_of(candidate) == kFastestTier) {
        down = candidate;
        break;
      }
    }
    if (down == kInvalidPage) return;  // nothing left to evict this interval
    if (!ctx_.engine->exchange(up, down)) return;
    ++moves;
  }
}

void DamonPolicy::persist(StateArchive& ar) {
  for (auto& m : monitors_) ar(*m);
  ar(wanted_, evictable_, want_idx_, want_page_, evict_idx_, evict_page_);
  for (const auto* list : {&wanted_, &evictable_})
    for (const RankedRegion& r : *list)
      ar.check(r.tenant < monitors_.size() && r.begin <= r.end &&
                   r.end <= monitors_[r.tenant]->footprint_pages(),
               "ranked region out of range");
  ar.check(want_idx_ <= wanted_.size() && evict_idx_ <= evictable_.size(),
           "region cursor out of range");
}

}  // namespace mtat

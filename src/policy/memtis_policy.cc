#include "policy/memtis_policy.h"

#include "common/state_archive.h"

namespace mtat {

MemtisPolicy::MemtisPolicy(const PolicyContext& ctx) : MemtisPolicy(ctx, Options{}) {}

MemtisPolicy::MemtisPolicy(const PolicyContext& ctx, Options opt)
    : ctx_(ctx), opt_(opt), hist_(*ctx.mem) {
  ctx_.sampler->add_sink(&hist_);
  hist_.seed_allocated_pages();  // never-sampled pages rank as coldest
}

void MemtisPolicy::on_tick(SimTime, Duration) {
  // Fill any free FMem with the hottest SMem pages first.
  std::uint64_t free_fmem = ctx_.mem->free_pages(kFastestTier);
  if (free_fmem > 0) {
    hist_.hottest_in_slower(
        std::min<std::uint64_t>(free_fmem, ctx_.engine->budget_pages()), hot_);
    for (PageId p : hot_)
      if (!ctx_.engine->promote_to_fastest(p)) break;
  }
  // Then displace: exchange hot SMem pages against strictly colder FMem pages.
  const std::size_t batch =
      std::min<std::size_t>(opt_.max_exchanges_per_tick, ctx_.engine->budget_pages() / 2);
  if (batch == 0) return;
  hist_.hottest_in_slower(batch, hot_);
  hist_.coldest_in_tier(kFastestTier, batch, victims_);
  std::size_t vi = 0;
  for (PageId p : hot_) {
    if (vi >= victims_.size()) break;
    const PageId victim = victims_[vi];
    // Hot list is descending, victim list ascending: once the gap closes,
    // no later pair can satisfy it either.
    if (hist_.bin_of_page(p) - hist_.bin_of_page(victim) < opt_.min_bin_gap) break;
    if (!ctx_.engine->exchange(p, victim)) break;
    ++vi;
  }
}

void MemtisPolicy::on_interval(SimTime, Duration, Duration) {
  if (++intervals_since_cooling_ >= opt_.cooling_period_intervals) {
    hist_.age();
    intervals_since_cooling_ = 0;
  }
}

void MemtisPolicy::persist(StateArchive& ar) { ar(hist_, intervals_since_cooling_); }

}  // namespace mtat

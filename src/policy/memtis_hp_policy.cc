#include "policy/memtis_hp_policy.h"

#include <algorithm>

#include "common/state_archive.h"

namespace mtat {

MemtisHpPolicy::MemtisHpPolicy(const PolicyContext& ctx) : MemtisHpPolicy(ctx, Options{}) {}

MemtisHpPolicy::MemtisHpPolicy(const PolicyContext& ctx, Options opt)
    : ctx_(ctx),
      opt_(opt),
      hist_(*ctx.mem),
      blocks_((ctx.mem->page_count() + kBlockPages - 1) / kBlockPages),
      seen_(ctx.mem->page_count(), 0) {
  ctx_.sampler->add_sink(&hist_);
  hist_.seed_allocated_pages();
  ctx_.sampler->add_callback([this](WorkloadId, PageId p, AccessKind) { on_sample(p); });
}

void MemtisHpPolicy::on_sample(PageId p) {
  if (p >= seen_.size()) return;  // allocated after attach
  Block& b = blocks_[p / kBlockPages];
  b.count++;
  if (!seen_[p]) {
    seen_[p] = 1;
    b.distinct++;
  }
}

void MemtisHpPolicy::promote_block(std::uint64_t block_index) {
  // Move every frame of the block into FMem, displacing the globally
  // coldest frames — the bulk path huge-page management buys.
  const PageId begin = static_cast<PageId>(block_index * kBlockPages);
  const PageId end = static_cast<PageId>(
      std::min<std::uint64_t>(ctx_.mem->page_count(), (block_index + 1) * kBlockPages));
  for (PageId p = begin; p < end; ++p) {
    if (ctx_.mem->tier_of(p) == kFastestTier) continue;
    if (ctx_.mem->free_pages(kFastestTier) > 0) {
      if (!ctx_.engine->promote_to_fastest(p)) return;
      continue;
    }
    const PageId victim = hist_.coldest_page(kFastestTier);
    if (victim == kInvalidPage) return;
    // Never let a block evict itself.
    if (victim >= begin && victim < end) continue;
    if (!ctx_.engine->exchange(p, victim)) return;
  }
  ++block_promotions_;
}

void MemtisHpPolicy::on_tick(SimTime, Duration) {
  // Bulk path first: pending hot-huge blocks from the last interval.
  while (!pending_blocks_.empty() && ctx_.engine->budget_pages() >= 2 * kBlockPages) {
    const std::uint64_t blk = pending_blocks_.back();
    pending_blocks_.pop_back();
    promote_block(blk);
  }
  // Base/split path: page-granular hottest-vs-coldest exchange, as MEMTIS.
  std::uint64_t free_fmem = ctx_.mem->free_pages(kFastestTier);
  if (free_fmem > 0) {
    hist_.hottest_in_slower(
        std::min<std::uint64_t>(free_fmem, ctx_.engine->budget_pages()), hot_);
    for (PageId p : hot_)
      if (!ctx_.engine->promote_to_fastest(p)) break;
  }
  const std::size_t batch =
      std::min<std::size_t>(opt_.max_exchanges_per_tick, ctx_.engine->budget_pages() / 2);
  if (batch == 0) return;
  hist_.hottest_in_slower(batch, hot_);
  hist_.coldest_in_tier(kFastestTier, batch, victims_);
  std::size_t vi = 0;
  for (PageId p : hot_) {
    if (vi >= victims_.size()) break;
    if (hist_.bin_of_page(p) - hist_.bin_of_page(victims_[vi]) < opt_.min_bin_gap) break;
    if (!ctx_.engine->exchange(p, victims_[vi])) break;
    ++vi;
  }
}

void MemtisHpPolicy::on_interval(SimTime, Duration, Duration) {
  // Page-size determination: rank blocks by count; a block whose samples
  // cover enough distinct frames is huge-managed (bulk promotion), a skewed
  // one is left to the page-granular path ("split").
  std::uint64_t window_total = 0;
  for (const Block& b : blocks_) window_total += b.count;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> ranked;  // (count, index)
  if (window_total > 0) {
    for (std::uint64_t i = 0; i < blocks_.size(); ++i) {
      const Block& b = blocks_[i];
      if (b.count == 0) continue;
      const double util = static_cast<double>(b.distinct) / static_cast<double>(kBlockPages);
      if (util >= opt_.util_threshold) ranked.push_back({b.count, i});
    }
    std::sort(ranked.rbegin(), ranked.rend());
    pending_blocks_.clear();
    const std::size_t n = std::min(opt_.max_block_promotions_per_interval, ranked.size());
    // Stored in reverse so on_tick pops the hottest block first.
    for (std::size_t i = n; i-- > 0;) pending_blocks_.push_back(ranked[i].second);
  }
  // Reset window state and cool the page histogram on its own period.
  for (Block& b : blocks_) b = Block{};
  std::fill(seen_.begin(), seen_.end(), 0);
  if (++intervals_since_cooling_ >= opt_.cooling_period_intervals) {
    hist_.age();
    intervals_since_cooling_ = 0;
  }
}

void MemtisHpPolicy::persist(StateArchive& ar) {
  ar(hist_);
  ar.fixed(blocks_);
  ar.fixed(seen_);
  ar(pending_blocks_, intervals_since_cooling_, block_promotions_);
  for (const std::uint64_t blk : pending_blocks_)
    ar.check(blk < blocks_.size(), "pending block out of range");
}

}  // namespace mtat

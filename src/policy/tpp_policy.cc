#include "policy/tpp_policy.h"

#include <algorithm>

#include "common/state_archive.h"

namespace mtat {

TppPolicy::TppPolicy(const PolicyContext& ctx) : TppPolicy(ctx, Options{}) {}

TppPolicy::TppPolicy(const PolicyContext& ctx, Options opt)
    : ctx_(ctx),
      opt_(opt),
      last_seen_tick_(ctx.mem->page_count(), -1),
      ref_bit_(ctx.mem->page_count(), 0),
      queued_(ctx.mem->page_count(), 0),
      clock_hand_(ctx.mem->tier_count() - 1, 0) {
  ctx_.sampler->add_callback(
      [this](WorkloadId, PageId p, AccessKind) { on_sample(p); });
}

void TppPolicy::on_sample(PageId p) {
  if (p >= last_seen_tick_.size()) return;  // page allocated after attach
  ref_bit_[p] = 1;  // keeps the page off its tier's demotion clock
  if (ctx_.mem->tier_of(p) == kFastestTier) return;
  // Two-touch filter: the first sample puts the page on the shadow active
  // list; a second sample within the window raises the promotion "fault".
  const std::int64_t last = last_seen_tick_[p];
  if (last >= 0 && tick_no_ - last <= opt_.active_window_ticks && !queued_[p]) {
    promote_queue_.push_back(p);
    queued_[p] = 1;
  }
  last_seen_tick_[p] = tick_no_;
}

void TppPolicy::on_tick(SimTime, Duration) {
  ++tick_no_;
  TieredMemory& mem = *ctx_.mem;
  MigrationEngine& engine = *ctx_.engine;
  // Watermark reclaim, per tier: every tier but the slowest demotes its cold
  // pages (clock with reference bits) one link down until free headroom is
  // restored — successive clocks cascade cold pages toward the slowest tier.
  // The scan bound keeps a tick's work proportional to the deficit.
  for (TierId t = 0; static_cast<std::size_t>(t) + 1 < mem.tier_count(); ++t) {
    // Keep at least one page free whenever a watermark is configured — TPP's
    // promotion path always needs headroom to land in.
    const auto watermark = std::max<std::uint64_t>(
        opt_.free_watermark > 0 ? 1 : 0,
        static_cast<std::uint64_t>(opt_.free_watermark *
                                   static_cast<double>(mem.capacity(t))));
    std::uint64_t deficit =
        mem.free_pages(t) < watermark ? watermark - mem.free_pages(t) : 0;
    std::uint64_t scan_budget = deficit * 4 + 64;
    std::uint64_t& hand = clock_hand_[t];
    while (deficit > 0 && scan_budget > 0 && engine.link_budget_pages(t) > 0) {
      const PageId p = static_cast<PageId>(hand % mem.page_count());
      hand++;
      --scan_budget;
      if (mem.tier_of(p) != t) continue;
      if (ref_bit_[p]) {
        ref_bit_[p] = 0;  // second chance
        continue;
      }
      if (engine.demote(p)) --deficit;
    }
  }

  // Fault-driven promotion into the freed headroom.
  std::size_t promoted = 0;
  while (!promote_queue_.empty() && promoted < opt_.max_promotions_per_tick &&
         engine.budget_pages() > 0 && mem.free_pages(kFastestTier) > 0) {
    const PageId p = promote_queue_.front();
    promote_queue_.pop_front();
    queued_[p] = 0;
    if (mem.tier_of(p) == kFastestTier) continue;  // already moved
    if (engine.promote_to_fastest(p)) {
      ref_bit_[p] = 1;  // freshly promoted pages start referenced
      ++promoted;
    }
  }
}

void TppPolicy::on_interval(SimTime, Duration, Duration) {
  // TPP has no interval-scale decision process; everything is fault-driven.
}

void TppPolicy::persist(StateArchive& ar) {
  ar.fixed(last_seen_tick_);
  ar.fixed(ref_bit_);
  ar.fixed(clock_hand_);
  ar(tick_no_);
  // queued_ marks exactly the pages in the promotion queue, so only the
  // queue is stored.
  std::vector<PageId> queue(promote_queue_.begin(), promote_queue_.end());
  ar(queue);
  if (!ar.loading()) return;
  std::fill(queued_.begin(), queued_.end(), 0);
  for (const PageId p : queue) {
    ar.check(p < queued_.size() && !queued_[p], "bad promotion queue entry");
    queued_[p] = 1;
  }
  promote_queue_.assign(queue.begin(), queue.end());
}

}  // namespace mtat

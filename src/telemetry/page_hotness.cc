#include "telemetry/page_hotness.h"

#include <stdexcept>

#include "common/state_archive.h"

namespace mtat {

PageHotness::PageHotness(TieredMemory& mem, WorkloadId workload_filter)
    : mem_(&mem), filter_(workload_filter), tiers_(mem.tier_count()) {
  // A filtered histogram records only its workload's samples, and a workload
  // samples only pages it owns, so it only needs to hear about their moves.
  mem.add_migration_listener(this, workload_filter);
}

void PageHotness::seed_allocated_pages() {
  // Size the arrays once for the highest page seeded (pages_of lists a
  // workload's pages in allocation order, so ascending).
  const std::vector<PageId>* owned =
      filter_ != kInvalidWorkload ? &mem_->pages_of(filter_) : nullptr;
  const std::size_t end = owned != nullptr ? (owned->empty() ? 0 : owned->back() + std::size_t{1})
                                           : mem_->page_count();
  if (end > words_.size()) {
    words_.resize(end, 0);
    pos_.resize(end, 0);
  }
  const auto seed_one = [this](PageId p) {
    if (words_[p] & kTrackedBit) return;
    const int tier = static_cast<int>(mem_->tier_of(p));
    words_[p] = kTrackedBit | packed_tier(tier) | packed_epoch();
    push(p, tier, 0);
    ++tracked_;
  };
  if (owned != nullptr) {
    for (PageId p : *owned) seed_one(p);
  } else {
    for (PageId p = 0; p < mem_->page_count(); ++p) seed_one(p);
  }
}

void PageHotness::record_untracked(PageId p) {
  // tier_of also validates p (throws on a never-allocated id), so ask before
  // growing the arrays.
  const int tier = static_cast<int>(mem_->tier_of(p));
  // A filtered histogram hears only about its workload's page moves, so a
  // page it tracks must be one of them. Tracked pages stay tracked, so
  // checking on first touch covers every sample.
  if (filter_ != kInvalidWorkload && mem_->owner_of(p) != filter_)
    throw std::logic_error("PageHotness: a workload sampled a page it does not own");
  ensure(p);
  words_[p] = kTrackedBit | packed_tier(tier) | packed_epoch() | 1u;
  push(p, tier, bin_of(1));
  ++tracked_;
}

void PageHotness::record_bin_move(PageId p, std::uint64_t word, std::uint32_t eff) {
  const int old_bin = bin_of(eff);
  const int new_bin = bin_of(eff + 1);
  const int tier = tier_of_word(word);
  words_[p] = (word & (kTierMask | kTrackedBit)) | packed_epoch() |
              static_cast<std::uint64_t>(eff + 1);
  // new_bin == old_bin happens only at the saturating top bin (and the
  // count-wrap corner); everywhere else eff+1 being a power of two means the
  // page steps up exactly one bin.
  if (new_bin != old_bin) {
    remove(p, tier, old_bin);
    push(p, tier, new_bin);
  }
}

void PageHotness::on_migration(PageId p, TierId, TierId to) {
  if (p >= words_.size()) return;
  const std::uint64_t word = words_[p];
  if (!(word & kTrackedBit)) return;
  const int tier = tier_of_word(word);
  const int bin = bin_of(effective_of(word));
  remove(p, tier, bin);
  const int nt = static_cast<int>(to);
  words_[p] = (word & ~kTierMask) | packed_tier(nt);
  push(p, nt, bin);
}

void PageHotness::age() {
  ++epoch_;
  // Counts halve lazily via the epoch shift; physically, every bin's contents
  // now belong one bin lower, which the circular bins express as a base_
  // advance. Only bin 1 (count 1 -> 0) needs touching: it merges into bin 0.
  for (TierBins& tb : tiers_) {
    auto& b0 = tb.bin0;
    auto& b1 = tb.ring[base_];  // logical bin 1
    const auto start = static_cast<std::uint32_t>(b0.size());
    b0.insert(b0.end(), b1.begin(), b1.end());
    for (std::uint32_t i = 0; i < b1.size(); ++i) pos_[b1[i]] = start + i;
    b1.clear();
  }
  base_ = (base_ + 1) % (kBins - 1);
  if (++ages_since_renorm_ >= kRenormPeriod) renormalize();
}

void PageHotness::renormalize() {
  // Rewrite every stored count to its effective value at the current epoch.
  // Effective counts (and therefore bins) are unchanged; this only keeps the
  // 24-bit stored epochs within an unambiguous distance of epoch_.
  for (std::uint64_t& word : words_) {
    if (!(word & kTrackedBit)) continue;
    word = (word & (kTierMask | kTrackedBit)) | packed_epoch() |
           static_cast<std::uint64_t>(effective_of(word));
  }
  ages_since_renorm_ = 0;
}

void PageHotness::scan(TierId tier, std::size_t max_n, bool from_hot,
                       std::vector<PageId>& out) const {
  if (max_n == 0) return;
  const int t = static_cast<int>(tier);
  const auto collect = [&](int b) { return pull(bin_ref(t, b), max_n, out); };
  // Hottest scans exclude bin 0 (effective count zero is not hot); coldest
  // scans start there — seeded/aged-out pages are the first candidates.
  if (from_hot) {
    for (int b = kBins - 1; b >= 1; --b)
      if (collect(b)) break;
  } else {
    for (int b = 0; b < kBins; ++b)
      if (collect(b)) break;
  }
}

PageId PageHotness::hottest_page(TierId tier) const {
  const int t = static_cast<int>(tier);
  for (int b = kBins - 1; b >= 1; --b) {
    const auto& v = bin_ref(t, b);
    if (!v.empty()) return v.front();
  }
  return kInvalidPage;
}

PageId PageHotness::coldest_page(TierId tier) const {
  const int t = static_cast<int>(tier);
  for (int b = 0; b < kBins; ++b) {
    const auto& v = bin_ref(t, b);
    if (!v.empty()) return v.front();
  }
  return kInvalidPage;
}

PageId PageHotness::hottest_slow_page() const {
  // Bin-major, then tier id order within a bin: at two tiers this is exactly
  // hottest_page(1); at more it prefers the hotter page regardless of where
  // in the cascade it sits.
  for (int b = kBins - 1; b >= 1; --b) {
    for (std::size_t t = 1; t < tiers_.size(); ++t) {
      const auto& v = bin_ref(static_cast<int>(t), b);
      if (!v.empty()) return v.front();
    }
  }
  return kInvalidPage;
}

PageId PageHotness::coldest_slow_page() const {
  for (int b = 0; b < kBins; ++b) {
    for (std::size_t t = 1; t < tiers_.size(); ++t) {
      const auto& v = bin_ref(static_cast<int>(t), b);
      if (!v.empty()) return v.front();
    }
  }
  return kInvalidPage;
}

void PageHotness::hottest_in_slower(std::size_t max_n, std::vector<PageId>& out) const {
  out.clear();
  if (max_n == 0) return;
  for (int b = kBins - 1; b >= 1; --b)
    for (std::size_t t = 1; t < tiers_.size(); ++t)
      if (pull(bin_ref(static_cast<int>(t), b), max_n, out)) return;
}

void PageHotness::coldest_in_slower(std::size_t max_n, std::vector<PageId>& out) const {
  out.clear();
  if (max_n == 0) return;
  for (int b = 0; b < kBins; ++b)
    for (std::size_t t = 1; t < tiers_.size(); ++t)
      if (pull(bin_ref(static_cast<int>(t), b), max_n, out)) return;
}

std::uint64_t PageHotness::pages_at_or_above(TierId tier, int b) const {
  const int t = static_cast<int>(tier);
  std::uint64_t n = 0;
  for (int i = b; i < kBins; ++i) n += bin_ref(t, i).size();
  return n;
}

std::uint64_t PageHotness::pages_at_or_above_total(int b) const {
  std::uint64_t n = 0;
  for (std::size_t t = 0; t < tiers_.size(); ++t) n += pages_at_or_above(static_cast<TierId>(t), b);
  return n;
}

void PageHotness::persist(StateArchive& ar) {
  ar(epoch_, ages_since_renorm_);
  if (ar.loading()) {
    std::fill(words_.begin(), words_.end(), 0);
    for (TierBins& tb : tiers_) {
      tb.bin0.clear();
      for (std::vector<PageId>& v : tb.ring) v.clear();
    }
    base_ = 0;
    tracked_ = 0;
  }
  // One varint per page: the zigzagged gap from the previous id in the bin,
  // shifted left by b-1 bits that carry the count's offset into its bin
  // ([2^(b-1), 2^b) for 1 <= b < kBins-1, so bin 1 needs no bits). Bin 0
  // holds only count 0; the saturated top bin stores its offset separately.
  for (int t = 0; t < static_cast<int>(tiers_.size()); ++t) {
    for (int b = 0; b < kBins; ++b) {
      const int k = b == 0 || b == kBins - 1 ? 0 : b - 1;
      const std::uint32_t floor = b == 0 ? 0 : 1u << (b - 1);
      std::vector<PageId>& bin = bin_ref(t, b);
      std::size_t n = bin.size();
      ar.length(n);
      if (ar.loading()) bin.reserve(n);
      std::int64_t prev = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (!ar.loading()) {
          const std::int64_t gap = static_cast<std::int64_t>(bin[i]) - prev;
          const std::uint64_t zz =
              (static_cast<std::uint64_t>(gap) << 1) ^ static_cast<std::uint64_t>(gap >> 63);
          std::uint64_t offset = effective_of(words_[bin[i]]) - floor;
          std::uint64_t code = zz << k | (k > 0 ? offset : 0);
          ar.varint(code);
          if (b == kBins - 1) ar.varint(offset);
          prev = bin[i];
          continue;
        }
        std::uint64_t code = 0, offset = 0;
        ar.varint(code);
        if (b == kBins - 1) ar.varint(offset);
        if (k > 0) offset = code & ((std::uint64_t{1} << k) - 1);
        const std::uint64_t zz = code >> k;
        const auto gap = static_cast<std::int64_t>((zz >> 1) ^ (~(zz & 1) + 1));
        ar.check(gap >= -prev && gap < static_cast<std::int64_t>(mem_->page_count()) - prev,
                 "hotness page id out of range");
        ar.check(offset <= 0xFFFFFFFFu - floor, "hotness count out of range");
        const auto p = static_cast<PageId>(prev + gap);
        ar.check(mem_->tier_of(p) == t, "hotness tier differs from the page's");
        ar.check(filter_ == kInvalidWorkload || mem_->owner_of(p) == filter_,
                 "hotness page of another workload");
        ensure(p);
        ar.check(!(words_[p] & kTrackedBit), "hotness page listed twice");
        words_[p] = kTrackedBit | packed_tier(t) | packed_epoch() | (floor + offset);
        pos_[p] = static_cast<std::uint32_t>(bin.size());
        bin.push_back(p);
        ++tracked_;
        prev = p;
      }
    }
  }
}

}  // namespace mtat

// Exponential-bin page-access histograms, flat SoA layout.
//
// This is the data structure §3.3.2 and §4 describe (and MEMTIS/FlexMem use):
// sampled per-page access counts are kept page-table-style, and pages are
// chained into histogram bins whose ranges double at each step (2^0, 2^1, ...),
// so "promote the hottest slow-tier pages" and "demote the coldest fast-tier
// pages" are O(result) pulls from the ends of the bin array. Bins are
// segregated by the page's current tier — the paper's separate FMem and SMem
// histograms, generalized to one histogram per tier of the topology — kept
// in sync with placement via a TieredMemory migration listener. Counts are
// periodically 'aged' by halving, implemented in O(|count-1 pages|) by
// advancing a circular bin base and halving stored counts lazily via an
// epoch shift.
//
// Bin rule: bin 0 holds count 0, bin b>=1 holds counts in [2^(b-1), 2^b).
// Halving every count therefore maps bin b exactly onto bin b-1, which is why
// the base rotation is exact, not an approximation.
//
// Layout. Per-page state is ONE 64-bit word in a flat array indexed by
// PageId — count (32 bits), age epoch (24 bits), cached tier (3 bits, so
// kMaxTiers = 8 topologies fit), and a tracked flag (1 bit) — plus a
// parallel pos_ array giving the page's slot in its bin vector. This
// replaces a 16-byte AoS entry whose hot path also had to chase
// TieredMemory::tier_of on every record; the tier field is kept in sync by
// the migration listener instead, so the common record — a same-bin
// count bump — inlines to one word load, a shift, a power-of-two test, and
// one word store. Logical bins 1..kBins-1 live in a circular array offset by
// base_, so age() merges logical bin 1 into bin 0 and advances base_ instead
// of moving kBins vectors. A renormalization sweep every kRenormPeriod ages
// rewrites stored counts to their effective values, which keeps the 24-bit
// stored epoch unambiguous.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "mem/tiered_memory.h"

namespace mtat {

class StateArchive;

class PageHotness : public MigrationListener {
 public:
  static constexpr int kBins = 32;

  /// Tracks hotness for pages of `mem`. If `workload_filter` is a valid id,
  /// only that workload's accesses are recorded (per-workload histograms of
  /// MTAT's PP-E); with kInvalidWorkload it records everything (the unified
  /// global histogram a MEMTIS-like policy uses).
  ///
  /// Registers a migration listener on `mem` — for the filtered workload's
  /// pages only, when filtered, so the filtered workload's samples must be of
  /// pages it owns (every workload model's are). The histogram must outlive
  /// any further page migrations and must not be moved.
  explicit PageHotness(TieredMemory& mem, WorkloadId workload_filter = kInvalidWorkload);

  PageHotness(const PageHotness&) = delete;
  PageHotness& operator=(const PageHotness&) = delete;

  /// Insert every currently allocated page (of the filtered workload, if any)
  /// at count 0, so never-accessed pages are orderable as "coldest". Policies
  /// call this once at attach time.
  void seed_allocated_pages();

  /// Record one sampled access to page `p` by workload `w`.
  void record_access(WorkloadId w, PageId p) {
    if (filter_ != kInvalidWorkload && w != filter_) return;
    record(p);
  }

  /// Record sampled accesses to `pages` by workload `w`, in order — the same
  /// state as one record_access per page. The packed words are prefetched a
  /// few samples ahead, since a large footprint misses the cache on most.
  void record_batch(WorkloadId w, std::span<const PageId> pages) {
    if (filter_ != kInvalidWorkload && w != filter_) return;
    for (std::size_t i = 0; i < pages.size(); ++i) {
      if (pages.size() - i > kAhead && pages[i + kAhead] < words_.size())
        __builtin_prefetch(&words_[pages[i + kAhead]], 1);
      record(pages[i]);
    }
  }

  /// Makes room for `n` more pages in every bin of every tier, growing a
  /// bin's capacity geometrically when it has less. `n` samples move at
  /// most `n` pages into any one bin, so recording them on a tracked page
  /// set then allocates nothing. Capacity changes neither order nor
  /// contents.
  void reserve_headroom(std::size_t n) {
    for (TierBins& tb : tiers_) {
      grow(tb.bin0, n);
      for (std::vector<PageId>& v : tb.ring) grow(v, n);
    }
  }

  /// Current (aged) access count of a page; 0 if never seen.
  std::uint32_t count_of(PageId p) const {
    return p < words_.size() && (words_[p] & kTrackedBit) ? effective_of(words_[p]) : 0;
  }

  /// Histogram bin of a page; -1 if untracked.
  int bin_of_page(PageId p) const {
    return p < words_.size() && (words_[p] & kTrackedBit) ? bin_of(effective_of(words_[p])) : -1;
  }

  /// Halve every count (the §3.3.2 aging step).
  void age();

  /// Up to `max_n` of the hottest tracked pages currently resident in `tier`,
  /// hottest bins first. Pages with zero effective count never qualify.
  std::vector<PageId> hottest_in_tier(TierId tier, std::size_t max_n) const {
    std::vector<PageId> out;
    out.reserve(max_n < 4096 ? max_n : 4096);
    scan(tier, max_n, /*from_hot=*/true, out);
    return out;
  }

  /// Up to `max_n` of the coldest tracked pages in `tier`, coldest first
  /// (seeded/aged-out pages in bin 0 lead).
  std::vector<PageId> coldest_in_tier(TierId tier, std::size_t max_n) const {
    std::vector<PageId> out;
    out.reserve(max_n < 4096 ? max_n : 4096);
    scan(tier, max_n, /*from_hot=*/false, out);
    return out;
  }

  /// Non-allocating pulls: clear `out` and fill it with the same pages (and
  /// order) the allocating overloads return. Policies that pull every
  /// interval keep a scratch vector and reuse its capacity.
  void hottest_in_tier(TierId tier, std::size_t max_n, std::vector<PageId>& out) const {
    out.clear();
    scan(tier, max_n, /*from_hot=*/true, out);
  }
  void coldest_in_tier(TierId tier, std::size_t max_n, std::vector<PageId>& out) const {
    out.clear();
    scan(tier, max_n, /*from_hot=*/false, out);
  }

  /// Single hottest / coldest tracked page in `tier` (what the allocating
  /// pulls return for max_n == 1), or kInvalidPage when no page qualifies.
  PageId hottest_page(TierId tier) const;
  PageId coldest_page(TierId tier) const;

  // --- Slower-aggregate views ------------------------------------------------
  //
  // Promotion policies want "the hottest page NOT in the fastest tier",
  // wherever it currently sits in the cascade. These aggregate every tier
  // except tier 0, scanning bins hottest-first (or coldest-first) and, within
  // a bin, tiers in id order; at two tiers they are exactly the tier-1 views.

  /// Hottest tracked page outside the fastest tier, or kInvalidPage.
  PageId hottest_slow_page() const;
  /// Coldest tracked page outside the fastest tier, or kInvalidPage.
  PageId coldest_slow_page() const;
  /// Up to `max_n` hottest pages outside the fastest tier, hottest bins first.
  void hottest_in_slower(std::size_t max_n, std::vector<PageId>& out) const;
  /// Up to `max_n` coldest pages outside the fastest tier, coldest first.
  void coldest_in_slower(std::size_t max_n, std::vector<PageId>& out) const;

  /// Number of tracked pages in `tier` at bin `b` or hotter — lets policies
  /// size "how much of my quota is genuinely warm" without a scan.
  std::uint64_t pages_at_or_above(TierId tier, int b) const;

  /// Same, summed over every tier of the topology (pages this hot wherever
  /// they currently live) — the tier-indexed hotness distribution a
  /// VTMM-style quota split consumes.
  std::uint64_t pages_at_or_above_total(int b) const;

  /// The pages of one (tier, bin), in structural order — the order pulls and
  /// aging observe them in. Exposed for determinism fingerprints and the
  /// differential equivalence test.
  const std::vector<PageId>& bin_pages(TierId tier, int b) const {
    return bin_ref(tier, b);
  }

  std::size_t bin_size(TierId tier, int b) const { return bin_ref(tier, b).size(); }
  std::size_t tracked_pages() const { return tracked_; }
  std::uint32_t age_epoch() const { return epoch_; }
  WorkloadId workload_filter() const { return filter_; }
  std::size_t tier_count() const { return tiers_.size(); }

  /// Checkpoint codec (common/state_archive.h). Each tier's bins are stored
  /// in logical order, bin 0 first, as delta-coded page ids that carry each
  /// page's effective count in their low bits. Loading rebuilds the packed
  /// words at the current epoch, the bins (with base 0) and the slot index.
  void persist(StateArchive& ar);

  /// The bin rule, exposed for tests: 0 -> 0, c >= 1 -> 1 + floor(log2(c)).
  static int bin_of(std::uint32_t c) {
    if (c == 0) return 0;
    const int b = 32 - __builtin_clz(c);  // 1 + floor(log2(c))
    return b >= kBins ? kBins - 1 : b;
  }

 private:
  // Packed-word fields. Stored epochs are 24-bit; the renormalization sweep
  // bounds the distance to epoch_ well below 2^24, so the masked difference
  // is the true age delta. The tier field is 3 bits (kMaxTiers = 8).
  static constexpr std::uint64_t kCountMask = 0xFFFFFFFFull;
  static constexpr int kEpochShift = 32;
  static constexpr std::uint32_t kEpochMask = 0xFFFFFFu;
  static constexpr int kTierShift = 56;
  static constexpr std::uint64_t kTierMask = 7ull << kTierShift;
  static constexpr std::uint64_t kTrackedBit = 1ull << 59;
  static constexpr std::uint32_t kRenormPeriod = 1u << 16;
  static constexpr std::size_t kAhead = 8;  ///< record_batch prefetch distance, in samples

  static int tier_of_word(std::uint64_t word) {
    return static_cast<int>((word >> kTierShift) & 7u);
  }
  static std::uint64_t packed_tier(int tier) {
    return static_cast<std::uint64_t>(tier) << kTierShift;
  }

  std::uint64_t packed_epoch() const {
    return static_cast<std::uint64_t>(epoch_ & kEpochMask) << kEpochShift;
  }

  std::uint32_t effective_of(std::uint64_t word) const {
    const std::uint32_t stored_epoch =
        static_cast<std::uint32_t>(word >> kEpochShift) & kEpochMask;
    const std::uint32_t shift = (epoch_ - stored_epoch) & kEpochMask;
    return shift >= 32 ? 0 : static_cast<std::uint32_t>(word & kCountMask) >> shift;
  }

  /// Per-tier bin storage: bin 0 is its own pool; bins 1..kBins-1 rotate
  /// through a circular array so age() is a base increment, not kBins moves.
  struct TierBins {
    std::vector<PageId> bin0;
    std::array<std::vector<PageId>, kBins - 1> ring;
  };

  std::vector<PageId>& bin_ref(int tier, int b) {
    return b == 0 ? tiers_[tier].bin0 : tiers_[tier].ring[(base_ + b - 1) % (kBins - 1)];
  }
  const std::vector<PageId>& bin_ref(int tier, int b) const {
    return b == 0 ? tiers_[tier].bin0 : tiers_[tier].ring[(base_ + b - 1) % (kBins - 1)];
  }

  static void grow(std::vector<PageId>& v, std::size_t n) {
    if (v.capacity() - v.size() < n) v.reserve(std::max(v.size() + n, 2 * v.capacity()));
  }

  void ensure(PageId p) {
    if (p >= words_.size()) {
      words_.resize(static_cast<std::size_t>(p) + 1, 0);
      pos_.resize(static_cast<std::size_t>(p) + 1, 0);
    }
  }

  void push(PageId p, int tier, int bin) {
    auto& v = bin_ref(tier, bin);
    pos_[p] = static_cast<std::uint32_t>(v.size());
    v.push_back(p);
  }

  void remove(PageId p, int tier, int bin) {
    auto& v = bin_ref(tier, bin);
    const std::uint32_t pos = pos_[p];
    v[pos] = v.back();
    pos_[v[pos]] = pos;
    v.pop_back();
  }

  /// One sample. The overwhelmingly common case — tracked page whose count
  /// stays within its bin — is a single load/store on the packed word; bin
  /// moves and first-touch tracking take the out-of-line paths.
  void record(PageId p) {
    if (p >= words_.size()) {
      record_untracked(p);
      return;
    }
    const std::uint64_t word = words_[p];
    if (!(word & kTrackedBit)) {
      record_untracked(p);
      return;
    }
    const std::uint32_t eff = effective_of(word);
    // The bin changes exactly when eff+1 is a power of two (covers eff == 0
    // entering bin 1, and unsigned wrap at eff == UINT32_MAX).
    if ((eff & (eff + 1)) != 0) {
      words_[p] = (word & (kTierMask | kTrackedBit)) | packed_epoch() |
                  static_cast<std::uint64_t>(eff + 1);
      return;
    }
    record_bin_move(p, word, eff);
  }

  // Cold paths of record(): first touch of a page, and a count bump that
  // crosses a bin boundary.
  void record_untracked(PageId p);
  void record_bin_move(PageId p, std::uint64_t word, std::uint32_t eff);

  /// Appends the first min(max_n - out.size(), bin.size()) pages of `bin` to
  /// `out`, in bin order, as one copy. True once `out` holds `max_n` pages.
  static bool pull(const std::vector<PageId>& bin, std::size_t max_n, std::vector<PageId>& out) {
    const std::size_t take = std::min(max_n - out.size(), bin.size());
    out.insert(out.end(), bin.begin(), bin.begin() + static_cast<std::ptrdiff_t>(take));
    return out.size() == max_n;
  }

  void on_migration(PageId p, TierId from, TierId to) override;
  void renormalize();
  void scan(TierId tier, std::size_t max_n, bool from_hot, std::vector<PageId>& out) const;

  TieredMemory* mem_;
  WorkloadId filter_;
  std::vector<std::uint64_t> words_;  ///< packed per-page state, indexed by PageId
  std::vector<std::uint32_t> pos_;    ///< slot within the page's bin vector
  std::vector<TierBins> tiers_;       ///< bin storage, one entry per tier
  int base_ = 0;                      ///< ring slot of logical bin 1
  std::size_t tracked_ = 0;
  std::uint32_t epoch_ = 0;
  std::uint32_t ages_since_renorm_ = 0;
};

}  // namespace mtat

// Differential test for the SoA PageHotness rewrite.
//
// RefHotness below is a direct transcription of the pre-SoA implementation:
// AoS entries (count/epoch/pos/tier/tracked), one std::vector per (tier, bin),
// aging by physically rotating the bin arrays, and a tier lookup through
// TieredMemory on every record. It is the executable spec of the old bin/list
// semantics — including the structural details that define pull ORDER:
// swap-remove on exit, append on entry, bin-1-into-bin-0 merge order on age.
//
// Both histograms listen on the same TieredMemory and ingest identical seeded
// access/migrate/age sequences; after every phase the SoA implementation must
// match the reference exactly — counts, bins, per-bin page order, pull order,
// and aggregate queries. Any divergence here would surface as a behavior
// change in every policy built on the histogram.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "telemetry/page_hotness.h"

namespace mtat {
namespace {

class RefHotness : public MigrationListener {
 public:
  static constexpr int kBins = PageHotness::kBins;

  explicit RefHotness(TieredMemory& mem, WorkloadId filter = kInvalidWorkload)
      : mem_(&mem), filter_(filter) {
    mem.add_migration_listener(this);
  }

  void seed_allocated_pages() {
    const auto seed_one = [this](PageId p) {
      ensure(p);
      Entry& e = entries_[p];
      if (e.tracked) return;
      e.tracked = true;
      e.count = 0;
      e.epoch = epoch_;
      push(p, static_cast<int>(mem_->tier_of(p)), 0);
      ++tracked_;
    };
    if (filter_ != kInvalidWorkload) {
      for (PageId p : mem_->pages_of(filter_)) seed_one(p);
    } else {
      for (PageId p = 0; p < mem_->page_count(); ++p) seed_one(p);
    }
  }

  void record_access(WorkloadId w, PageId p) {
    if (filter_ != kInvalidWorkload && w != filter_) return;
    ensure(p);
    Entry& e = entries_[p];
    const int tier = static_cast<int>(mem_->tier_of(p));
    const std::uint32_t eff = e.tracked ? effective(e) : 0;
    const int old_bin = PageHotness::bin_of(eff);
    const int new_bin = PageHotness::bin_of(eff + 1);
    if (!e.tracked) {
      e.tracked = true;
      ++tracked_;
      e.count = 1;
      e.epoch = epoch_;
      push(p, tier, new_bin);
      return;
    }
    e.count = eff + 1;
    e.epoch = epoch_;
    if (new_bin != old_bin || static_cast<int>(e.tier) != tier) {
      remove(p, e.tier, old_bin);
      push(p, tier, new_bin);
    }
  }

  void age() {
    ++epoch_;
    for (auto& tier_bins : bins_) {
      auto& b0 = tier_bins[0];
      for (PageId p : tier_bins[1]) {
        entries_[p].pos = static_cast<std::uint32_t>(b0.size());
        b0.push_back(p);
      }
      for (int b = 1; b + 1 < kBins; ++b) tier_bins[b] = std::move(tier_bins[b + 1]);
      tier_bins[kBins - 1].clear();
    }
  }

  std::uint32_t count_of(PageId p) const {
    return p < entries_.size() && entries_[p].tracked ? effective(entries_[p]) : 0;
  }
  int bin_of_page(PageId p) const {
    return p < entries_.size() && entries_[p].tracked
               ? PageHotness::bin_of(effective(entries_[p]))
               : -1;
  }

  std::vector<PageId> pull(TierId tier, std::size_t max_n, bool from_hot) const {
    std::vector<PageId> out;
    const auto& tier_bins = bins_[static_cast<int>(tier)];
    const auto collect = [&](int b) {
      for (PageId p : tier_bins[b]) {
        out.push_back(p);
        if (out.size() == max_n) return true;
      }
      return false;
    };
    if (max_n == 0) return out;
    if (from_hot) {
      for (int b = kBins - 1; b >= 1; --b)
        if (collect(b)) break;
    } else {
      for (int b = 0; b < kBins; ++b)
        if (collect(b)) break;
    }
    return out;
  }

  const std::vector<PageId>& bin_pages(TierId tier, int b) const {
    return bins_[static_cast<int>(tier)][b];
  }
  std::size_t tracked_pages() const { return tracked_; }
  std::uint32_t age_epoch() const { return epoch_; }

 private:
  struct Entry {
    std::uint32_t count = 0;
    std::uint32_t epoch = 0;
    std::uint32_t pos = 0;
    std::uint8_t tier = 0;
    bool tracked = false;
  };

  std::uint32_t effective(const Entry& e) const {
    const std::uint32_t shift = epoch_ - e.epoch;
    return shift >= 32 ? 0 : e.count >> shift;
  }
  void ensure(PageId p) {
    if (p >= entries_.size()) entries_.resize(static_cast<std::size_t>(p) + 1);
  }
  void push(PageId p, int tier, int bin) {
    auto& v = bins_[tier][bin];
    entries_[p].pos = static_cast<std::uint32_t>(v.size());
    entries_[p].tier = static_cast<std::uint8_t>(tier);
    v.push_back(p);
  }
  void remove(PageId p, int tier, int bin) {
    auto& v = bins_[tier][bin];
    const std::uint32_t pos = entries_[p].pos;
    v[pos] = v.back();
    entries_[v[pos]].pos = pos;
    v.pop_back();
  }
  void on_migration(PageId p, TierId, TierId to) override {
    if (p >= entries_.size()) return;
    Entry& e = entries_[p];
    if (!e.tracked) return;
    const int bin = PageHotness::bin_of(effective(e));
    remove(p, e.tier, bin);
    push(p, static_cast<int>(to), bin);
  }

  TieredMemory* mem_;
  WorkloadId filter_;
  std::vector<Entry> entries_;
  std::vector<PageId> bins_[2][kBins];
  std::size_t tracked_ = 0;
  std::uint32_t epoch_ = 0;
};

constexpr TierId kTiers[2] = {Tier::kFMem, Tier::kSMem};

void expect_equivalent(const RefHotness& ref, const PageHotness& soa, std::uint64_t page_count,
                       const char* where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(ref.tracked_pages(), soa.tracked_pages());
  ASSERT_EQ(ref.age_epoch(), soa.age_epoch());
  for (TierId t : kTiers) {
    for (int b = 0; b < PageHotness::kBins; ++b) {
      SCOPED_TRACE(testing::Message() << "tier " << static_cast<int>(t) << " bin " << b);
      ASSERT_EQ(ref.bin_pages(t, b), soa.bin_pages(t, b));
      ASSERT_EQ(ref.bin_pages(t, b).size(), soa.bin_size(t, b));
    }
    // Pull ORDER must match, at every batch size shape: single page, small
    // batch (within the hottest/coldest bin), large batch (spans bins).
    for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{256}, std::size_t{100000}}) {
      ASSERT_EQ(ref.pull(t, n, true), soa.hottest_in_tier(t, n));
      ASSERT_EQ(ref.pull(t, n, false), soa.coldest_in_tier(t, n));
    }
    const auto ref_hot = ref.pull(t, 1, true);
    ASSERT_EQ(ref_hot.empty() ? kInvalidPage : ref_hot.front(), soa.hottest_page(t));
    const auto ref_cold = ref.pull(t, 1, false);
    ASSERT_EQ(ref_cold.empty() ? kInvalidPage : ref_cold.front(), soa.coldest_page(t));
    std::uint64_t above = 0;
    for (int b = PageHotness::kBins - 1; b >= 0; --b) {
      above += ref.bin_pages(t, b).size();
      ASSERT_EQ(above, soa.pages_at_or_above(t, b));
    }
  }
  for (PageId p = 0; p < page_count; ++p) {
    ASSERT_EQ(ref.count_of(p), soa.count_of(p)) << "page " << p;
    ASSERT_EQ(ref.bin_of_page(p), soa.bin_of_page(p)) << "page " << p;
  }
}

struct Harness {
  static constexpr std::uint64_t kPages = 4096;

  Harness(WorkloadId filter, std::uint64_t seed)
      : mem(config()), ref(mem, filter), soa(mem, filter), rng(seed) {
    mem.allocate(0, kPages / 2, kFastestFirst);
    mem.allocate(1, kPages / 2, kFastestFirst);
  }

  static TieredMemory::Config config() {
    TieredMemory::Config c =
        TieredMemory::Config::two_tier(kPages / 4, kPages);
    return c;
  }

  void step() {
    const std::uint32_t op = rng.next_below(100);
    if (op < 78) {
      // Skewed accesses: most records hit a small hot set of the recording
      // workload's pages so counts climb through many bins; the rest sweep
      // all of its pages (bin 0 <-> 1 churn). Every workload model samples
      // only pages it owns (a filtered histogram hears only of those moves).
      const WorkloadId w = static_cast<WorkloadId>(rng.next_below(2));
      const std::vector<PageId>& own = mem.pages_of(w);
      const std::uint64_t span = op < 60 ? kPages / 32 : own.size();
      const PageId p = own[rng.next_below(span)];
      ASSERT_EQ(mem.owner_of(p), w);
      ref.record_access(w, p);
      soa.record_access(w, p);
    } else if (op < 90) {
      const PageId p = static_cast<PageId>(rng.next_below(kPages));
      const TierId to = rng.next_below(2) == 0 ? Tier::kFMem : Tier::kSMem;
      mem.migrate(p, to);  // both histograms observe via the listener
    } else if (op < 96) {
      // Exchange two pages in different tiers, when such a pair exists.
      const PageId a = static_cast<PageId>(rng.next_below(kPages));
      const PageId b = static_cast<PageId>(rng.next_below(kPages));
      if (mem.tier_of(a) != mem.tier_of(b)) mem.exchange(a, b);
    } else {
      ref.age();
      soa.age();
    }
  }

  TieredMemory mem;
  RefHotness ref;
  PageHotness soa;
  Rng rng;
};

TEST(PageHotnessEquivalence, RandomizedGlobalHistogram) {
  for (std::uint64_t seed : {11u, 222u, 3333u}) {
    Harness h(kInvalidWorkload, seed);
    h.ref.seed_allocated_pages();
    h.soa.seed_allocated_pages();
    expect_equivalent(h.ref, h.soa, Harness::kPages, "after seed");
    for (int round = 0; round < 8; ++round) {
      for (int i = 0; i < 4000; ++i) h.step();
      expect_equivalent(h.ref, h.soa, Harness::kPages, "after round");
    }
  }
}

TEST(PageHotnessEquivalence, RandomizedFilteredHistogram) {
  // Workload-filtered (PP-E style) histograms: records from the other
  // workload must be invisible, migrations of untracked pages ignored.
  Harness h(/*filter=*/1, 99);
  h.ref.seed_allocated_pages();
  h.soa.seed_allocated_pages();
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 4000; ++i) h.step();
    expect_equivalent(h.ref, h.soa, Harness::kPages, "after round");
  }
  EXPECT_EQ(h.soa.workload_filter(), 1);
}

TEST(PageHotnessEquivalence, LazyTrackingWithoutSeeding) {
  // No seed_allocated_pages: pages become tracked on first record only.
  Harness h(kInvalidWorkload, 7);
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 3000; ++i) h.step();
    expect_equivalent(h.ref, h.soa, Harness::kPages, "after round");
  }
  EXPECT_LE(h.soa.tracked_pages(), Harness::kPages);
}

TEST(PageHotnessEquivalence, DeepAgingCrossesTheRenormalizationSweep) {
  // The SoA layout stores 24-bit epochs and renormalizes every 2^16 ages;
  // the reference keeps full 32-bit epochs and never renormalizes. Drive
  // both through > 2^16 ages with records sprinkled in: effective counts,
  // bin structure, and pull order must stay identical across the sweep.
  Harness h(kInvalidWorkload, 1234);
  h.ref.seed_allocated_pages();
  h.soa.seed_allocated_pages();
  Rng rng(5);
  const int kAges = (1 << 16) + 50;
  for (int a = 0; a < kAges; ++a) {
    if (a % 512 == 0) {
      for (int i = 0; i < 64; ++i) {
        const PageId p = static_cast<PageId>(rng.next_below(Harness::kPages / 8));
        h.ref.record_access(0, p);
        h.soa.record_access(0, p);
      }
    }
    h.ref.age();
    h.soa.age();
    if (a == (1 << 16) - 2 || a == (1 << 16) + 49)
      expect_equivalent(h.ref, h.soa, Harness::kPages, "around renorm boundary");
  }
  EXPECT_EQ(h.soa.age_epoch(), static_cast<std::uint32_t>(kAges));
}

TEST(PageHotnessEquivalence, AgedOutPagesReadAsZeroInBothLayouts) {
  Harness h(kInvalidWorkload, 8);
  h.ref.seed_allocated_pages();
  h.soa.seed_allocated_pages();
  const PageId p = 3;
  for (int i = 0; i < 1000; ++i) {
    h.ref.record_access(0, p);
    h.soa.record_access(0, p);
  }
  ASSERT_GT(h.soa.count_of(p), 0u);
  for (int i = 0; i < 40; ++i) {  // shift >= 32: lazy halving bottoms out
    h.ref.age();
    h.soa.age();
  }
  EXPECT_EQ(h.soa.count_of(p), 0u);
  expect_equivalent(h.ref, h.soa, Harness::kPages, "after deep aging");
}

}  // namespace
}  // namespace mtat

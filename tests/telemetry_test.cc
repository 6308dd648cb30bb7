// Tests for telemetry: the exponential-bin page-hotness histogram (bin rule,
// aging exactness, tier segregation) and the PEBS-like access sampler.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "telemetry/access_sampler.h"
#include "telemetry/page_hotness.h"

namespace mtat {
namespace {

TieredMemory::Config cfg(std::uint64_t f = 8, std::uint64_t s = 64) {
  TieredMemory::Config c =
      TieredMemory::Config::two_tier(f, s);
  return c;
}

// ----------------------------------------------------------- bin rule ----

TEST(PageHotnessBinRule, ExponentialBoundaries) {
  EXPECT_EQ(PageHotness::bin_of(0), 0);
  EXPECT_EQ(PageHotness::bin_of(1), 1);
  EXPECT_EQ(PageHotness::bin_of(2), 2);
  EXPECT_EQ(PageHotness::bin_of(3), 2);
  EXPECT_EQ(PageHotness::bin_of(4), 3);
  EXPECT_EQ(PageHotness::bin_of(7), 3);
  EXPECT_EQ(PageHotness::bin_of(8), 4);
  EXPECT_EQ(PageHotness::bin_of(1u << 30), 31);
}

TEST(PageHotnessBinRule, HalvingShiftsExactlyOneBin) {
  for (std::uint32_t c = 1; c < 100000; c = c * 3 + 1)
    EXPECT_EQ(PageHotness::bin_of(c / 2), std::max(0, PageHotness::bin_of(c) - 1)) << c;
}

// ------------------------------------------------------------ recording ----

TEST(PageHotness, CountsAccumulate) {
  TieredMemory mem(cfg());
  const auto p = mem.allocate(0, 1, kTierOnly(Tier::kSMem));
  PageHotness h(mem);
  for (int i = 0; i < 5; ++i) h.record_access(0, p[0]);
  EXPECT_EQ(h.count_of(p[0]), 5u);
  EXPECT_EQ(h.bin_of_page(p[0]), 3);
  EXPECT_EQ(h.count_of(p[0] + 100), 0u);  // unknown page
}

TEST(PageHotness, WorkloadFilterIgnoresOthers) {
  TieredMemory mem(cfg());
  const auto a = mem.allocate(0, 1, kTierOnly(Tier::kSMem));
  const auto b = mem.allocate(1, 1, kTierOnly(Tier::kSMem));
  PageHotness h(mem, /*workload_filter=*/1);
  h.record_access(0, a[0]);
  h.record_access(1, b[0]);
  EXPECT_EQ(h.count_of(a[0]), 0u);
  EXPECT_EQ(h.count_of(b[0]), 1u);
}

TEST(PageHotness, SeedPutsAllPagesInBinZero) {
  TieredMemory mem(cfg(4, 16));
  mem.allocate(0, 6, kFastestFirst);
  PageHotness h(mem);
  h.seed_allocated_pages();
  EXPECT_EQ(h.tracked_pages(), 6u);
  EXPECT_EQ(h.bin_size(Tier::kFMem, 0), 4u);
  EXPECT_EQ(h.bin_size(Tier::kSMem, 0), 2u);
}

TEST(PageHotness, SeedRespectsFilter) {
  TieredMemory mem(cfg());
  mem.allocate(0, 3, kTierOnly(Tier::kSMem));
  mem.allocate(1, 2, kTierOnly(Tier::kSMem));
  PageHotness h(mem, 1);
  h.seed_allocated_pages();
  EXPECT_EQ(h.tracked_pages(), 2u);
}

// ---------------------------------------------------------------- aging ----

TEST(PageHotness, AgingHalvesCounts) {
  TieredMemory mem(cfg());
  const auto p = mem.allocate(0, 1, kTierOnly(Tier::kSMem));
  PageHotness h(mem);
  for (int i = 0; i < 12; ++i) h.record_access(0, p[0]);
  h.age();
  EXPECT_EQ(h.count_of(p[0]), 6u);
  h.age();
  EXPECT_EQ(h.count_of(p[0]), 3u);
}

TEST(PageHotness, AgingMatchesRecomputedBins) {
  // Property: after arbitrary record/age interleavings, each page's physical
  // bin equals bin_of(effective count) — the rotation trick is exact.
  TieredMemory mem(cfg(16, 128));
  const auto pages = mem.allocate(0, 100, kFastestFirst);
  PageHotness h(mem);
  Rng rng(3);
  for (int step = 0; step < 2000; ++step) {
    if (rng.next_bool(0.01)) {
      h.age();
    } else {
      h.record_access(0, pages[rng.next_below(pages.size())]);
    }
  }
  // Cross-check: hottest_in_tier returns pages in non-increasing bin order.
  const auto hot = h.hottest_in_tier(Tier::kSMem, 100);
  for (std::size_t i = 1; i < hot.size(); ++i)
    EXPECT_GE(h.bin_of_page(hot[i - 1]), h.bin_of_page(hot[i]));
  const auto cold = h.coldest_in_tier(Tier::kFMem, 100);
  for (std::size_t i = 1; i < cold.size(); ++i)
    EXPECT_LE(h.bin_of_page(cold[i - 1]), h.bin_of_page(cold[i]));
  // And every returned page is actually resident where claimed.
  for (PageId p : hot) EXPECT_EQ(mem.tier_of(p), Tier::kSMem);
  for (PageId p : cold) EXPECT_EQ(mem.tier_of(p), Tier::kFMem);
}

TEST(PageHotness, AgedOutPagesReachBinZero) {
  TieredMemory mem(cfg());
  const auto p = mem.allocate(0, 1, kTierOnly(Tier::kSMem));
  PageHotness h(mem);
  h.record_access(0, p[0]);
  for (int i = 0; i < 40; ++i) h.age();  // beyond the 32-bit shift horizon
  EXPECT_EQ(h.count_of(p[0]), 0u);
  EXPECT_EQ(h.bin_of_page(p[0]), 0);
  // A fresh access re-enters bin 1 cleanly.
  h.record_access(0, p[0]);
  EXPECT_EQ(h.count_of(p[0]), 1u);
  EXPECT_EQ(h.bin_of_page(p[0]), 1);
}

// --------------------------------------------------- tier segregation ----

TEST(PageHotness, MigrationMovesPageBetweenTierBins) {
  TieredMemory mem(cfg());
  const auto p = mem.allocate(0, 1, kTierOnly(Tier::kSMem));
  PageHotness h(mem);
  h.record_access(0, p[0]);
  EXPECT_EQ(h.hottest_in_tier(Tier::kSMem, 1).size(), 1u);
  mem.migrate(p[0], Tier::kFMem);
  EXPECT_TRUE(h.hottest_in_tier(Tier::kSMem, 1).empty());
  const auto hot_f = h.hottest_in_tier(Tier::kFMem, 1);
  ASSERT_EQ(hot_f.size(), 1u);
  EXPECT_EQ(hot_f[0], p[0]);
  EXPECT_EQ(h.count_of(p[0]), 1u);  // count survives the move
}

TEST(PageHotness, HottestExcludesZeroCountPages) {
  TieredMemory mem(cfg());
  mem.allocate(0, 5, kTierOnly(Tier::kSMem));
  PageHotness h(mem);
  h.seed_allocated_pages();
  EXPECT_TRUE(h.hottest_in_tier(Tier::kSMem, 10).empty());
  EXPECT_EQ(h.coldest_in_tier(Tier::kSMem, 10).size(), 5u);
}

TEST(PageHotness, PagesAtOrAboveCounts) {
  TieredMemory mem(cfg());
  const auto p = mem.allocate(0, 3, kTierOnly(Tier::kSMem));
  PageHotness h(mem);
  h.record_access(0, p[0]);  // bin 1
  h.record_access(0, p[1]);
  h.record_access(0, p[1]);  // bin 2
  EXPECT_EQ(h.pages_at_or_above(Tier::kSMem, 1), 2u);
  EXPECT_EQ(h.pages_at_or_above(Tier::kSMem, 2), 1u);
  EXPECT_EQ(h.pages_at_or_above(Tier::kFMem, 1), 0u);
}

TEST(PageHotness, ScanHonorsMaxN) {
  TieredMemory mem(cfg(0, 64));
  const auto p = mem.allocate(0, 10, kTierOnly(Tier::kSMem));
  PageHotness h(mem);
  for (PageId pid : p) h.record_access(0, pid);
  EXPECT_EQ(h.hottest_in_tier(Tier::kSMem, 4).size(), 4u);
  EXPECT_TRUE(h.hottest_in_tier(Tier::kSMem, 0).empty());
}

// -------------------------------------------------------- AccessSampler ----

TEST(AccessSampler, ClassifiesByTier) {
  TieredMemory mem(cfg(1, 8));
  const auto p = mem.allocate(0, 2, kFastestFirst);
  AccessSampler sampler(mem);
  sampler.on_sampled_access(0, p[0], AccessKind::kRead);
  sampler.on_sampled_access(0, p[1], AccessKind::kWrite);
  const auto c = sampler.peek(0);
  EXPECT_EQ(c.fmem_accesses(), 1u);
  EXPECT_EQ(c.smem_accesses(), 1u);
  EXPECT_EQ(c.reads, 1u);
  EXPECT_EQ(c.writes, 1u);
  EXPECT_DOUBLE_EQ(c.fmem_access_ratio(), 0.5);
}

TEST(AccessSampler, CollectResetsIntervalButAccumulates) {
  TieredMemory mem(cfg());
  const auto p = mem.allocate(2, 1, kTierOnly(Tier::kSMem));
  AccessSampler sampler(mem);
  sampler.on_sampled_access(2, p[0], AccessKind::kRead);
  const auto first = sampler.collect(2);
  EXPECT_EQ(first.total(), 1u);
  EXPECT_EQ(sampler.peek(2).total(), 0u);
  sampler.on_sampled_access(2, p[0], AccessKind::kRead);
  sampler.collect(2);
  EXPECT_EQ(sampler.cumulative(2).total(), 2u);
}

TEST(AccessSampler, IdleIntervalRatioIsOne) {
  TieredMemory mem(cfg());
  AccessSampler sampler(mem);
  EXPECT_DOUBLE_EQ(sampler.collect(0).fmem_access_ratio(), 1.0);
}

TEST(AccessSampler, FansOutToSinksAndCallbacks) {
  TieredMemory mem(cfg());
  const auto p = mem.allocate(0, 1, kTierOnly(Tier::kSMem));
  AccessSampler sampler(mem);
  PageHotness h(mem);
  sampler.add_sink(&h);
  int cb = 0;
  sampler.add_callback([&](WorkloadId, PageId, AccessKind) { ++cb; });
  sampler.on_sampled_access(0, p[0], AccessKind::kRead);
  EXPECT_EQ(h.count_of(p[0]), 1u);
  EXPECT_EQ(cb, 1);
}

TEST(AccessSampler, TrueCountScaling) {
  TieredMemory mem(cfg());
  AccessSampler sampler(mem, /*sample_period=*/256);
  EXPECT_EQ(sampler.to_true_count(10), 2560u);
}

}  // namespace
}  // namespace mtat

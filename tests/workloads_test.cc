// Tests for XSBench, the LC workload models, profile extraction, and the BE
// workload engine.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "telemetry/access_sampler.h"
#include "workloads/be/be_suite.h"
#include "workloads/be/be_workload.h"
#include "workloads/lc/lc_workload.h"
#include "workloads/xsbench/xsbench.h"

namespace mtat {
namespace {

TieredMemory::Config big(std::uint64_t fmem_pages = 1) {
  TieredMemory::Config c =
      TieredMemory::Config::two_tier(fmem_pages, 1 << 19);  // 2 GiB
  return c;
}

// -------------------------------------------------------------- XSBench ----

TEST(XSBench, LookupAccessCountNearBinarySearchDepth) {
  TieredMemory mem(big());
  XSBenchKernel::Config xc;
  xc.n_gridpoints = 4096;
  xc.n_nuclides = 8;
  xc.points_per_nuclide = 128;
  xc.avg_nuclides_per_material = 5;
  AddressSpace space(mem, 0, XSBenchKernel::required_bytes(xc), kTierOnly(Tier::kSMem));
  XSBenchKernel kernel(space, xc, 1);
  const auto stats = kernel.run(1000);
  // log2(4096) = 12 probes + 1 row read + 5 gathers = ~18 per lookup.
  const double per_lookup = static_cast<double>(stats.accesses) / 1000.0;
  EXPECT_GT(per_lookup, 14.0);
  EXPECT_LT(per_lookup, 20.0);
  EXPECT_EQ(stats.lookups, 1000u);
  EXPECT_EQ(stats.memory_latency, stats.accesses * 202u);
}

TEST(XSBench, RejectsDegenerateConfig) {
  TieredMemory mem(big());
  XSBenchKernel::Config xc;
  xc.n_gridpoints = 1;
  AddressSpace space(mem, 0, 1_MiB, kTierOnly(Tier::kSMem));
  EXPECT_THROW(XSBenchKernel(space, xc, 1), std::invalid_argument);
}

TEST(XSBench, GridRegionIsHotterThanNuclideData) {
  // The binary search concentrates accesses on the unionized grid.
  TieredMemory mem(big());
  XSBenchKernel::Config xc;
  xc.n_gridpoints = 1024;
  xc.n_nuclides = 8;
  xc.points_per_nuclide = 2048;
  AddressSpace space(mem, 0, XSBenchKernel::required_bytes(xc), kTierOnly(Tier::kSMem));
  XSBenchKernel kernel(space, xc, 2);
  const auto stats = kernel.run(2000);
  // 10 binary probes + 1 vs 10 gathers: grid gets ~11/21 of accesses on a
  // much smaller region.
  const Bytes grid_bytes = xc.n_gridpoints * (8 + 8 * 4);
  EXPECT_LT(grid_bytes * 3, XSBenchKernel::required_bytes(xc));
  EXPECT_GT(stats.accesses, 0u);
}

// ---------------------------------------------------------- LC workloads ----

TEST(LCWorkload, ConfigsCoverPaperTable1) {
  const auto configs = all_lc_configs();
  ASSERT_EQ(configs.size(), 4u);
  EXPECT_EQ(configs[0].name, "redis");
  EXPECT_EQ(configs[1].name, "memcached");
  EXPECT_EQ(configs[2].name, "mongodb");
  EXPECT_EQ(configs[3].name, "silo");
  EXPECT_EQ(configs[0].threads, 1);
  EXPECT_EQ(configs[1].threads, 8);
  EXPECT_EQ(configs[3].slo, milliseconds(15));
}

LCConfig small_redis() {
  LCConfig c = redis_config();
  c.n_records = 20'000;
  return c;
}

TEST(LCWorkload, CalibrationHitsThroughputTargets) {
  TieredMemory mem(big());
  LCWorkload wl(mem, 0, small_redis(), kTierOnly(Tier::kSMem), 1);
  // Service times must order FMem < SMem with ratio ~= smem_throughput_ratio.
  const auto s_f = static_cast<double>(wl.ideal_service_time(Tier::kFMem));
  const auto s_s = static_cast<double>(wl.ideal_service_time(Tier::kSMem));
  EXPECT_LT(s_f, s_s);
  EXPECT_NEAR(s_f / s_s, wl.config().smem_throughput_ratio, 0.02);
  // Saturation throughput at full FMem must exceed the configured max load
  // (the knee is just above it) but not by a large factor.
  const double sat_krps = 1e6 * wl.config().threads / s_f;
  EXPECT_GT(sat_krps, wl.config().max_load_krps);
  EXPECT_LT(sat_krps, wl.config().max_load_krps * 1.5);
}

class LCServeSweep : public ::testing::TestWithParam<int> {};

TEST_P(LCServeSweep, ServiceTimesWithinIdealEnvelope) {
  // Property over all four workload kinds: measured service times stay inside
  // the all-FMem .. all-SMem envelope and average close to the pure-SMem
  // ideal when everything is in SMem.
  TieredMemory mem(big());
  LCConfig cfg = all_lc_configs()[static_cast<std::size_t>(GetParam())];
  cfg.n_records = 20'000;
  LCWorkload wl(mem, 0, cfg, kTierOnly(Tier::kSMem), 42);
  const Duration lo = wl.ideal_service_time(Tier::kFMem);
  const Duration hi = wl.ideal_service_time(Tier::kSMem);
  double sum = 0;
  const int kReqs = 2000;
  for (int i = 0; i < kReqs; ++i) {
    const Duration s = wl.serve();
    ASSERT_GE(s, lo);
    ASSERT_LE(s, hi + hi / 5);  // probe-count variance can exceed the mean model
    sum += static_cast<double>(s);
  }
  EXPECT_NEAR(sum / kReqs, static_cast<double>(hi), 0.1 * static_cast<double>(hi));
  EXPECT_EQ(wl.requests_served(), static_cast<std::uint64_t>(kReqs));
}

INSTANTIATE_TEST_SUITE_P(AllKinds, LCServeSweep, ::testing::Values(0, 1, 2, 3));

TEST(LCWorkload, FasterWhenResidentInFMem) {
  TieredMemory mem(big(1 << 19));
  LCWorkload fast(mem, 0, small_redis(), kTierOnly(Tier::kFMem), 7);
  LCWorkload slow(mem, 1, small_redis(), kTierOnly(Tier::kSMem), 7);
  double f = 0, s = 0;
  for (int i = 0; i < 500; ++i) {
    f += static_cast<double>(fast.serve());
    s += static_cast<double>(slow.serve());
  }
  EXPECT_LT(f, s * 0.9);
}

TEST(LCWorkload, ZipfianRequestsSkewTelemetry) {
  TieredMemory mem(big());
  LCConfig cfg = small_redis();
  cfg.dist = RequestDist::kZipfian;
  cfg.sample_period = 1;
  LCWorkload wl(mem, 0, cfg, kTierOnly(Tier::kSMem), 9);
  AccessSampler sampler(mem);
  PageHotness hist(mem);
  sampler.add_sink(&hist);
  wl.space().set_observer(&sampler);
  for (int i = 0; i < 3000; ++i) wl.serve();
  // Under zipf some record pages must be far hotter than the median page.
  const auto hot = hist.hottest_in_tier(Tier::kSMem, 1);
  ASSERT_FALSE(hot.empty());
  EXPECT_GE(hist.bin_of_page(hot[0]), 4);
}

TEST(LCWorkload, SiloTouchesMultipleTables) {
  TieredMemory mem(big());
  LCConfig cfg = silo_config();
  cfg.n_records = 18'000;
  LCWorkload wl(mem, 0, cfg, kTierOnly(Tier::kSMem), 11);
  // A transaction must cost much more than a single-record workload request.
  TieredMemory mem2(big());
  LCWorkload redis(mem2, 0, small_redis(), kTierOnly(Tier::kSMem), 11);
  EXPECT_GT(wl.serve(), redis.serve());
}

TEST(LCWorkload, BadCalibrationRejected) {
  TieredMemory mem(big());
  LCConfig cfg = small_redis();
  cfg.smem_throughput_ratio = 0.05;  // impossible: base CPU would go negative
  EXPECT_THROW(LCWorkload(mem, 0, cfg, kTierOnly(Tier::kSMem), 1), std::invalid_argument);
}

// ------------------------------------------------------ profile / BE ----

TEST(PageProfile, ExtractionNormalizes) {
  const PageProfile prof = extract_profile(64 * kPageSize, [](AddressSpace& space) {
    for (std::uint64_t i = 0; i < 640; ++i) space.access_page(i % 64);
    return std::uint64_t{64};
  });
  double sum = 0;
  for (double w : prof.weight) sum += w;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(prof.accesses_per_iteration, 10.0);
}

TEST(PageProfile, ExtractionRejectsZeroWork) {
  EXPECT_THROW(extract_profile(kPageSize, [](AddressSpace&) { return std::uint64_t{0}; }),
               std::runtime_error);
}

TEST(PageProfile, StretchPreservesMassAndShape) {
  PageProfile p;
  p.weight = {0.5, 0.3, 0.2};
  p.accesses_per_iteration = 2.0;
  const PageProfile q = p.stretched_to(9);
  ASSERT_EQ(q.num_pages(), 9u);
  double sum = 0;
  for (double w : q.weight) sum += w;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // First three stretched pages inherit source page 0's mass evenly.
  EXPECT_NEAR(q.weight[0], 0.5 / 3, 1e-9);
  EXPECT_NEAR(q.weight[8], 0.2 / 3, 1e-9);
  EXPECT_EQ(q.accesses_per_iteration, 2.0);
}

TEST(PageProfile, BestPlacementPrefixIsMonotoneConcave) {
  PageProfile p;
  p.weight = {0.1, 0.4, 0.2, 0.3};
  const auto prefix = p.best_placement_prefix();
  ASSERT_EQ(prefix.size(), 5u);
  EXPECT_DOUBLE_EQ(prefix[0], 0.0);
  EXPECT_NEAR(prefix[4], 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(prefix[1], 0.4);  // hottest first
  for (std::size_t i = 1; i < prefix.size(); ++i) {
    EXPECT_GE(prefix[i], prefix[i - 1]);
    if (i >= 2) {  // marginal gains shrink
      EXPECT_LE(prefix[i] - prefix[i - 1], prefix[i - 1] - prefix[i - 2] + 1e-12);
    }
  }
}

TEST(BEWorkload, RateMonotoneInFMemPages) {
  TieredMemory mem(big());
  BEConfig cfg = xsbench_config(BEScale::kTest, 8_MiB, 4);
  BEWorkload be(mem, 1, cfg, kTierOnly(Tier::kSMem), nullptr, 1);
  double prev = 0;
  for (std::uint64_t g : {0ull, 256ull, 1024ull, 2048ull}) {
    const double r = be.rate_at_pages(g);
    EXPECT_GE(r, prev);
    prev = r;
  }
  EXPECT_DOUBLE_EQ(be.perf_full(), be.rate_at_pages(be.space().num_pages()));
  EXPECT_GT(be.perf_full(), be.rate_at_pages(0) * 1.5);
}

TEST(BEWorkload, TickAccruesIterations) {
  TieredMemory mem(big());
  BEConfig cfg = pr_config(BEScale::kTest, 8_MiB, 4);
  BEWorkload be(mem, 1, cfg, kTierOnly(Tier::kSMem), nullptr, 1);
  be.tick(milliseconds(100));
  const double first = be.take_interval_iterations();
  EXPECT_NEAR(first, be.current_rate() * 0.1, first * 0.01);
  EXPECT_DOUBLE_EQ(be.take_interval_iterations(), 0.0);  // drained
  EXPECT_GT(be.total_iterations(), 0.0);
}

TEST(BEWorkload, FmemWeightTracksMigrations) {
  TieredMemory mem(big(4096));
  BEConfig cfg = sssp_config(BEScale::kTest, 8_MiB, 4);
  BEWorkload be(mem, 1, cfg, kTierOnly(Tier::kSMem), nullptr, 1);
  EXPECT_DOUBLE_EQ(be.fmem_weight(), 0.0);
  // Promote 200 pages and cross-check against a recomputation.
  const auto& pages = be.space().pages();
  for (int i = 0; i < 200; ++i) mem.migrate(pages[static_cast<std::size_t>(i * 7)], Tier::kFMem);
  double expect = 0;
  for (std::size_t i = 0; i < pages.size(); ++i)
    if (mem.tier_of(pages[i]) == Tier::kFMem) expect += cfg.profile.tables->weight[i];
  EXPECT_NEAR(be.fmem_weight(), expect, 1e-12);
  EXPECT_GT(be.current_rate(), be.rate_at_pages(0));
}

TEST(BEWorkload, EmitsSampledTelemetry) {
  TieredMemory mem(big());
  BEConfig cfg = bfs_config(BEScale::kTest, 8_MiB, 4);
  cfg.sample_period = 512;
  AccessSampler sampler(mem, cfg.sample_period);
  BEWorkload be(mem, 1, cfg, kTierOnly(Tier::kSMem), &sampler, 1);
  be.tick(milliseconds(100));
  const auto c = sampler.collect(1);
  const double expected =
      be.total_iterations() * cfg.profile.accesses_per_iteration / 512.0;
  EXPECT_NEAR(static_cast<double>(c.total()), expected, expected * 0.05 + 2);
  EXPECT_EQ(c.fmem_accesses(), 0u);  // everything lives in SMem here
}

TEST(BEWorkload, MigrationChurnCostsThroughput) {
  TieredMemory mem(big(4096));
  BEConfig cfg = pr_config(BEScale::kTest, 8_MiB, 4);
  cfg.migration_stall = milliseconds(1);  // exaggerated for visibility
  BEWorkload be(mem, 1, cfg, kTierOnly(Tier::kSMem), nullptr, 1);
  be.tick(milliseconds(10));
  const double clean = be.take_interval_iterations();
  for (int i = 0; i < 5; ++i) mem.migrate(be.space().pages()[static_cast<std::size_t>(i)], Tier::kFMem);
  be.tick(milliseconds(10));
  const double churned = be.take_interval_iterations();
  EXPECT_LT(churned, clean * 0.7);  // 5 ms of stall in a 10 ms tick
}

TEST(BESuite, CoversPaperTable2) {
  const auto suite = be_suite(BEScale::kTest, 8_MiB, 4, 4);
  ASSERT_EQ(suite.size(), 4u);
  EXPECT_EQ(suite[0].name, "sssp");
  EXPECT_EQ(suite[1].name, "bfs");
  EXPECT_EQ(suite[2].name, "pr");
  EXPECT_EQ(suite[3].name, "xsbench");
  for (const auto& c : suite) {
    EXPECT_FALSE(c.description.empty());
    EXPECT_EQ(c.profile.num_pages(), bytes_to_pages(c.rss));
    EXPECT_GT(c.profile.accesses_per_iteration, 0.0);
  }
}

TEST(BESuite, ProfileMemoIsThreadSafeAndDeterministic) {
  // The per-process profile memos (common/memo.h, used by be_suite.cc) are shared
  // across parallel-runner workers. Hammer it from several threads — first
  // touch races included — and every caller must see bit-identical profiles,
  // equal to a serially built reference.
  const BEConfig ref = sssp_config(BEScale::kTest, 8_MiB, 4);
  constexpr int kThreads = 4;
  std::vector<BEConfig> got(kThreads);
  {
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i)
      pool.emplace_back([&got, i] { got[static_cast<std::size_t>(i)] =
                                        sssp_config(BEScale::kTest, 8_MiB, 4); });
    for (std::thread& t : pool) t.join();
  }
  for (const BEConfig& c : got) {
    EXPECT_EQ(c.profile.accesses_per_iteration, ref.profile.accesses_per_iteration);
    ASSERT_EQ(c.profile.num_pages(), ref.profile.num_pages());
    EXPECT_TRUE(c.profile.tables->weight == ref.profile.tables->weight);  // bitwise
  }
}

TEST(BESuite, TwoWorkloadSettingIsSsspAndPr) {
  const auto suite = be_suite(BEScale::kTest, 8_MiB, 4, 2);
  ASSERT_EQ(suite.size(), 2u);
  EXPECT_EQ(suite[0].name, "sssp");
  EXPECT_EQ(suite[1].name, "pr");
  EXPECT_THROW(be_suite(BEScale::kTest, 8_MiB, 4, 5), std::invalid_argument);
}

}  // namespace
}  // namespace mtat

namespace mtat {
namespace {

TEST(BEWorkload, RateUnderMatchesCurrentRateAtBaseLatencies) {
  TieredMemory::Config mc =
      TieredMemory::Config::two_tier(4096, 1 << 19);
  TieredMemory mem(mc);
  BEConfig cfg = pr_config(BEScale::kTest, 8_MiB, 4);
  BEWorkload be(mem, 1, cfg, kFastestFirst, nullptr, 1);
  // With no contention, the hypothetical-rate hook at the live placement's
  // hit fraction and base latencies must agree with current_rate().
  const double via_hook = be.rate_under(be.fmem_weight(), 73.0, 202.0);
  EXPECT_NEAR(via_hook, be.current_rate(), 1e-6 * be.current_rate());
  // And it must fall monotonically as the slow-tier latency inflates.
  EXPECT_GT(via_hook, be.rate_under(be.fmem_weight(), 73.0, 404.0));
}

TEST(BEWorkload, HitFractionMatchesPrefix) {
  TieredMemory::Config mc =
      TieredMemory::Config::two_tier(1, 1 << 19);
  TieredMemory mem(mc);
  BEConfig cfg = sssp_config(BEScale::kTest, 8_MiB, 4);
  BEWorkload be(mem, 1, cfg, kTierOnly(Tier::kSMem), nullptr, 1);
  EXPECT_DOUBLE_EQ(be.hit_fraction_at_pages(0), 0.0);
  EXPECT_NEAR(be.hit_fraction_at_pages(be.space().num_pages()), 1.0, 1e-9);
  // Monotone and concave-ish in between.
  double prev = 0;
  for (std::uint64_t g = 0; g <= be.space().num_pages(); g += 200) {
    const double h = be.hit_fraction_at_pages(g);
    EXPECT_GE(h, prev);
    prev = h;
  }
}

}  // namespace
}  // namespace mtat

namespace mtat {
namespace {

TEST(PageProfile, StretchRejectsShrinking) {
  PageProfile p;
  p.weight = {0.5, 0.3, 0.2};
  p.accesses_per_iteration = 1.0;
  EXPECT_THROW(p.stretched_to(1), std::invalid_argument);
  EXPECT_EQ(p.stretched_to(3).num_pages(), 3u);  // identity expansion is fine
}

TEST(PageProfile, AliasSamplerOverStretchedProfileMatchesWeights) {
  PageProfile p;
  p.weight = {0.7, 0.2, 0.1};
  p.accesses_per_iteration = 1.0;
  const PageProfile q = p.stretched_to(30);
  AliasSampler alias(q.weight);
  Rng rng(17);
  std::vector<int> hits(30, 0);
  for (int i = 0; i < 90000; ++i) hits[alias(rng)]++;
  // First third of the stretched pages carries 70% of the draws.
  int first_third = 0;
  for (int i = 0; i < 10; ++i) first_third += hits[i];
  EXPECT_NEAR(first_third, 63000, 1500);
}

}  // namespace
}  // namespace mtat

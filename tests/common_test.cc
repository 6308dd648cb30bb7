// Tests for the common substrate: RNG + distributions, latency histogram,
// running statistics, CSV writer, alias sampler, checked number parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>

#include "bench/env.h"
#include "common/alias_sampler.h"
#include "common/csv.h"
#include "common/latency_histogram.h"
#include "common/parse.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"

namespace mtat {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(9);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 1000; ++i) ASSERT_LT(r.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng r(11);
  const int kBuckets = 8, kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) counts[r.next_below(kBuckets)]++;
  for (int c : counts) {
    EXPECT_GT(c, kDraws / kBuckets * 0.9);
    EXPECT_LT(c, kDraws / kBuckets * 1.1);
  }
}

TEST(Rng, NextBetweenInclusive) {
  Rng r(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = r.next_between(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values reachable
}

TEST(Rng, GaussianMoments) {
  Rng r(17);
  RunningStat s;
  for (int i = 0; i < 200000; ++i) s.add(r.next_gaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng r(19);
  RunningStat s;
  const double rate = 4.0;
  for (int i = 0; i < 200000; ++i) s.add(r.next_exponential(rate));
  EXPECT_NEAR(s.mean(), 1.0 / rate, 0.01);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(23);
  Rng child = a.split();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

// ------------------------------------------------------------- Zipfian ----

TEST(Zipfian, RejectsBadParameters) {
  EXPECT_THROW(ZipfianGenerator(0, 0.9), std::invalid_argument);
  EXPECT_THROW(ZipfianGenerator(10, 0.0), std::invalid_argument);
  EXPECT_THROW(ZipfianGenerator(10, 1.0), std::invalid_argument);
}

TEST(Zipfian, StaysInRange) {
  ZipfianGenerator z(1000, 0.99);
  Rng r(29);
  for (int i = 0; i < 10000; ++i) ASSERT_LT(z(r), 1000u);
}

TEST(Zipfian, RankZeroIsMostFrequent) {
  ZipfianGenerator z(1000, 0.99);
  Rng r(31);
  int zero = 0, hundred = 0;
  for (int i = 0; i < 50000; ++i) {
    const auto v = z(r);
    zero += v == 0;
    hundred += v == 100;
  }
  EXPECT_GT(zero, 10 * (hundred + 1));
}

TEST(ScrambledZipfian, ScattersHotKeys) {
  ScrambledZipfianGenerator z(1000, 0.99);
  Rng r(37);
  // The two most frequent scrambled keys should not be adjacent ranks.
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 50000; ++i) counts[z(r)]++;
  int best = 0, second = 0;
  for (int i = 0; i < 1000; ++i)
    if (counts[i] > counts[best]) {
      second = best;
      best = i;
    } else if (counts[i] > counts[second]) {
      second = i;
    }
  EXPECT_GT(std::abs(best - second), 1);
}

// ---------------------------------------------------- LatencyHistogram ----

TEST(LatencyHistogram, ExactForSmallValues) {
  for (Duration v : {0ull, 1ull, 5ull, 63ull})
    EXPECT_EQ(LatencyHistogram::value_for(LatencyHistogram::index_for(v)), v);
}

TEST(LatencyHistogram, BucketBoundsContainValue) {
  // For any value, the bucket's representative must be >= the value and
  // within ~3.2% relative error.
  Rng r(41);
  for (int i = 0; i < 10000; ++i) {
    const Duration v = r.next_u64() >> (r.next_below(40) + 4);
    const Duration rep = LatencyHistogram::value_for(LatencyHistogram::index_for(v));
    ASSERT_GE(rep, v);
    if (v >= 64) {
      ASSERT_LE(static_cast<double>(rep - v), 0.033 * static_cast<double>(v));
    }
  }
}

TEST(LatencyHistogram, IndexIsMonotone) {
  std::size_t prev = 0;
  for (Duration v = 0; v < 100000; v += 7) {
    const std::size_t idx = LatencyHistogram::index_for(v);
    ASSERT_GE(idx, prev);
    prev = idx;
  }
}

TEST(LatencyHistogram, PercentileOnUniformData) {
  LatencyHistogram h;
  for (Duration v = 1; v <= 10000; ++v) h.record(v);
  EXPECT_NEAR(static_cast<double>(h.percentile(50)), 5000, 5000 * 0.04);
  EXPECT_NEAR(static_cast<double>(h.percentile(99)), 9900, 9900 * 0.04);
  EXPECT_EQ(h.percentile(100), 10000u);
  EXPECT_EQ(h.percentile(0), 1u);
}

TEST(LatencyHistogram, CountMinMaxMean) {
  LatencyHistogram h;
  h.record(10);
  h.record(20);
  h.record(30);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 30u);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(LatencyHistogram, RecordNEquivalentToLoop) {
  LatencyHistogram a, b;
  a.record_n(777, 5);
  for (int i = 0; i < 5; ++i) b.record(777);
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.percentile(50), b.percentile(50));
  EXPECT_DOUBLE_EQ(a.mean(), b.mean());
}

TEST(LatencyHistogram, MergeCombines) {
  LatencyHistogram a, b;
  for (int i = 0; i < 100; ++i) a.record(100);
  for (int i = 0; i < 100; ++i) b.record(10000);
  a.merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.min(), 100u);
  EXPECT_EQ(a.max(), 10000u);
  EXPECT_LE(a.percentile(40), 110u);
  EXPECT_GE(a.percentile(60), 9000u);
}

TEST(LatencyHistogram, ResetClears) {
  LatencyHistogram h;
  h.record(5);
  h.reset();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.percentile(99), 0u);
  EXPECT_EQ(h.min(), 0u);
}

TEST(LatencyHistogram, EmptyPercentileIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.percentile(99), 0u);
}

// Property sweep: P99 of a known exponential sample is close to the exact
// empirical order statistic across scales.
class HistogramPercentileSweep : public ::testing::TestWithParam<double> {};

TEST_P(HistogramPercentileSweep, MatchesExactOrderStatistic) {
  const double scale = GetParam();
  Rng r(43);
  LatencyHistogram h;
  std::vector<Duration> exact;
  for (int i = 0; i < 20000; ++i) {
    const auto v = static_cast<Duration>(r.next_exponential(1.0 / scale)) + 1;
    h.record(v);
    exact.push_back(v);
  }
  std::sort(exact.begin(), exact.end());
  const Duration truth = exact[static_cast<std::size_t>(0.99 * exact.size())];
  EXPECT_NEAR(static_cast<double>(h.percentile(99)), static_cast<double>(truth),
              0.05 * static_cast<double>(truth));
}

INSTANTIATE_TEST_SUITE_P(Scales, HistogramPercentileSweep,
                         ::testing::Values(1e3, 1e5, 1e7, 1e9));

// ---------------------------------------------------------------- Stats ----

TEST(RunningStat, MatchesClosedForm) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(Ewma, ConvergesToConstant) {
  Ewma e(0.3);
  for (int i = 0; i < 100; ++i) e.add(42.0);
  EXPECT_NEAR(e.value(), 42.0, 1e-9);
}

TEST(Ewma, FirstSamplePrimes) {
  Ewma e(0.1);
  EXPECT_FALSE(e.primed());
  e.add(10.0);
  EXPECT_TRUE(e.primed());
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(Ewma, RejectsBadAlpha) {
  EXPECT_THROW(Ewma(0.0), std::invalid_argument);
  EXPECT_THROW(Ewma(1.5), std::invalid_argument);
}

TEST(SlidingWindow, EvictsOldest) {
  SlidingWindow w(3);
  w.add(1);
  w.add(2);
  w.add(3);
  EXPECT_TRUE(w.full());
  EXPECT_DOUBLE_EQ(w.mean(), 2.0);
  w.add(10);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);  // {2,3,10}
  EXPECT_DOUBLE_EQ(w.back(), 10.0);
}

// ------------------------------------------------------------------ Csv ----

TEST(CsvWriter, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/csv_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.row({1.0, 2.5});
    csv.row("label", {3.0});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2.5");
  std::getline(in, line);
  EXPECT_EQ(line, "label,3");
}

TEST(CsvWriter, RejectsColumnMismatch) {
  CsvWriter csv(::testing::TempDir() + "/csv_test2.csv", {"a", "b"});
  EXPECT_THROW(csv.row({1.0}), std::invalid_argument);
  EXPECT_THROW(csv.row("x", {1.0, 2.0}), std::invalid_argument);
}

TEST(CsvWriter, ThrowsWhenTheStreamFails) {
  // /dev/full opens fine but fails every write with ENOSPC — the silent-
  // truncation case the writer must surface as an exception, not swallow.
  std::ofstream probe("/dev/full");
  if (!probe.is_open()) GTEST_SKIP() << "/dev/full not available on this host";
  probe.close();
  EXPECT_THROW(CsvWriter("/dev/full", {"a", "b"}), std::runtime_error);
}

// ----------------------------------------------------------- Alias ----

TEST(AliasSampler, RejectsDegenerateInput) {
  EXPECT_THROW(AliasSampler({}), std::invalid_argument);
  EXPECT_THROW(AliasSampler({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(AliasSampler({1.0, -0.5}), std::invalid_argument);
}

TEST(AliasSampler, MatchesDistribution) {
  const std::vector<double> w = {1.0, 2.0, 4.0, 8.0, 0.0, 1.0};
  AliasSampler s(w);
  Rng r(47);
  std::vector<int> counts(w.size(), 0);
  const int kDraws = 160000;
  for (int i = 0; i < kDraws; ++i) counts[s(r)]++;
  const double total = 16.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    const double expected = kDraws * w[i] / total;
    EXPECT_NEAR(counts[i], expected, kDraws * 0.01) << "index " << i;
  }
  EXPECT_EQ(counts[4], 0);  // zero weight never drawn
}

TEST(AliasSampler, CoinEqualToTheColumnProbabilityTakesTheAlias) {
  // Weights {c, 2 - c} that sum to exactly 2 give column 0 probability c
  // and alias 1. A draw of column 0 with coin exactly c is where
  // `coin < prob` and `coin <= prob` part: it must take the alias, in both
  // operator() and draw().
  int checked = 0;
  for (std::uint64_t seed = 1; seed < 400 && checked < 3; ++seed) {
    Rng peek(seed);
    if (peek.next_below(2) != 0) continue;
    const double c = peek.next_double();
    if (c == 0.0 || c + (2.0 - c) != 2.0) continue;
    const AliasSampler s({c, 2.0 - c});
    Rng one(seed);
    EXPECT_EQ(s(one), 1u) << "seed " << seed;
    Rng batch(seed);
    std::uint32_t out[1];
    s.draw(batch, out);
    EXPECT_EQ(out[0], 1u) << "seed " << seed;
    ++checked;
  }
  EXPECT_EQ(checked, 3);
}

TEST(AliasSampler, SingleElement) {
  AliasSampler s({3.0});
  Rng r(53);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(s(r), 0u);
}

// ---------------------------------------------------------------- Parse ----

TEST(Parse, ExactlyOneNumberWithoutSurroundingWhitespace) {
  // strto* skip leading whitespace, so without a check of the first character
  // " -1" gets past parse_u64's sign check and wraps to 2^64 - 1.
  const struct {
    const char* in;
    std::optional<long long> i64;
    std::optional<unsigned long long> u64;
    std::optional<double> dbl;
  } cases[] = {
      {" -1", {}, {}, {}}, {"\t-1", {}, {}, {}},  {" 12", {}, {}, {}},
      {"12 ", {}, {}, {}}, {"-1", -1, {}, -1.0}, {"+7", 7, 7u, 7.0},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(parse_i64(c.in), c.i64) << '"' << c.in << '"';
    EXPECT_EQ(parse_int(c.in), c.i64) << '"' << c.in << '"';
    EXPECT_EQ(parse_u64(c.in), c.u64) << '"' << c.in << '"';
    EXPECT_EQ(parse_double(c.in), c.dbl) << '"' << c.in << '"';
  }
}

// MTAT_TRACE_EVENTS is checked without running anything: every worker
// context allocates the whole ring up front, so a huge value must never
// reach TraceRecorder::enable.
TEST(Parse, TraceEventsAreCappedAtFourMebiEvents) {
  EXPECT_EQ(bench::internal::parse_trace_events("4194304"), std::size_t{4194304});
  EXPECT_EQ(bench::internal::parse_trace_events("1"), std::size_t{1});
  EXPECT_EQ(bench::internal::parse_trace_events("4194305"), std::nullopt);
  EXPECT_EQ(bench::internal::parse_trace_events("18446744073709551615"), std::nullopt);
  EXPECT_EQ(bench::internal::parse_trace_events("0"), std::nullopt);
  EXPECT_EQ(bench::internal::parse_trace_events(" -1"), std::nullopt);
}

// ---------------------------------------------------------------- Units ----

TEST(Units, Conversions) {
  EXPECT_EQ(seconds(2), 2'000'000'000ull);
  EXPECT_EQ(milliseconds(3), 3'000'000ull);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(5)), 5.0);
  EXPECT_EQ(bytes_to_pages(1), 1ull);
  EXPECT_EQ(bytes_to_pages(4096), 1ull);
  EXPECT_EQ(bytes_to_pages(4097), 2ull);
  EXPECT_EQ(pages_to_bytes(3), 12288ull);
  EXPECT_EQ(2_MiB, 2ull * 1024 * 1024);
}

}  // namespace
}  // namespace mtat

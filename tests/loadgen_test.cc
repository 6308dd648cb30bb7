// Tests for load patterns, latency recording, and the M/G/k queueing engine —
// including a property check of the queue against M/M/1 theory, which is the
// mechanism every latency figure in the reproduction rests on.
#include <gtest/gtest.h>

#include <cmath>

#include "loadgen/load_pattern.h"
#include "loadgen/queue_sim.h"

namespace mtat {
namespace {

// ------------------------------------------------------------ patterns ----

TEST(LoadPattern, RejectsBadSteps) {
  EXPECT_THROW(LoadPattern({}), std::invalid_argument);
  EXPECT_THROW(LoadPattern({{0, 5.0}}), std::invalid_argument);
  EXPECT_THROW(LoadPattern({{seconds(1), -1.0}}), std::invalid_argument);
}

TEST(LoadPattern, StepLookup) {
  LoadPattern p({{seconds(10), 100.0}, {seconds(5), 200.0}});
  EXPECT_DOUBLE_EQ(p.rate_at(0), 100.0);
  EXPECT_DOUBLE_EQ(p.rate_at(seconds(10) - 1), 100.0);
  EXPECT_DOUBLE_EQ(p.rate_at(seconds(10)), 200.0);
  EXPECT_DOUBLE_EQ(p.rate_at(seconds(100)), 200.0);  // persists past the end
  EXPECT_EQ(p.total_length(), seconds(15));
}

TEST(LoadPattern, Figure7Shape) {
  const LoadPattern p = LoadPattern::figure7(1000.0);
  EXPECT_EQ(p.total_length(), seconds(240));
  EXPECT_DOUBLE_EQ(p.rate_at(seconds(10)), 200.0);   // 20%
  EXPECT_DOUBLE_EQ(p.rate_at(seconds(70)), 800.0);   // 80%
  EXPECT_DOUBLE_EQ(p.rate_at(seconds(100)), 1000.0); // plateau 80..140
  EXPECT_DOUBLE_EQ(p.rate_at(seconds(139)), 1000.0);
  EXPECT_DOUBLE_EQ(p.rate_at(seconds(150)), 800.0);
  EXPECT_DOUBLE_EQ(p.rate_at(seconds(230)), 200.0);
}

TEST(LoadPattern, StaircaseAndConstant) {
  const LoadPattern s = LoadPattern::staircase(100.0, {0.25, 0.5, 1.0}, seconds(2));
  EXPECT_DOUBLE_EQ(s.rate_at(seconds(1)), 25.0);
  EXPECT_DOUBLE_EQ(s.rate_at(seconds(3)), 50.0);
  EXPECT_DOUBLE_EQ(s.rate_at(seconds(5)), 100.0);
  EXPECT_DOUBLE_EQ(LoadPattern::constant(42.0).rate_at(seconds(99)), 42.0);
}

// ------------------------------------------------------ LatencyRecorder ----

TEST(LatencyRecorder, WindowsByArrivalTime) {
  LatencyRecorder rec(seconds(1), milliseconds(10));
  rec.record(milliseconds(500), microseconds(100));
  rec.record(seconds(1) + 1, microseconds(200));
  rec.record(seconds(2) + 1, microseconds(300));
  const auto p99 = rec.p99_series();
  ASSERT_EQ(p99.size(), 3u);
  EXPECT_NEAR(static_cast<double>(p99[0]), 100'000, 4000);
  EXPECT_NEAR(static_cast<double>(p99[2]), 300'000, 11000);
}

TEST(LatencyRecorder, ViolationAccounting) {
  LatencyRecorder rec(seconds(1), milliseconds(1));
  rec.record(0, microseconds(900));
  rec.record(0, microseconds(1100));
  rec.record(0, microseconds(1200));
  EXPECT_EQ(rec.total_requests(), 3u);
  EXPECT_EQ(rec.slo_violations(), 2u);
  EXPECT_NEAR(rec.violation_rate(), 2.0 / 3.0, 1e-12);
}

TEST(LatencyRecorder, CollectIntervalResets) {
  LatencyRecorder rec(seconds(1), milliseconds(1));
  rec.record(0, 1000);
  EXPECT_EQ(rec.collect_interval().count(), 1u);
  EXPECT_EQ(rec.collect_interval().count(), 0u);
}

// -------------------------------------------------------------- QueueSim ----

LCConfig queue_test_config(int threads) {
  LCConfig c = redis_config();
  c.n_records = 20'000;
  c.threads = threads;
  return c;
}

TEST(QueueSim, RequiresPattern) {
  TieredMemory::Config mc =
      TieredMemory::Config::two_tier(1, 1 << 16);
  TieredMemory mem(mc);
  LCWorkload wl(mem, 0, queue_test_config(1), kTierOnly(Tier::kSMem), 1);
  QueueSim q(wl, seconds(1), 1);
  EXPECT_THROW(q.run_until(seconds(1)), std::logic_error);
}

TEST(QueueSim, ThroughputMatchesOfferedLoadBelowSaturation) {
  TieredMemory::Config mc =
      TieredMemory::Config::two_tier(1, 1 << 16);
  TieredMemory mem(mc);
  LCWorkload wl(mem, 0, queue_test_config(1), kTierOnly(Tier::kSMem), 2);
  QueueSim q(wl, seconds(1), 3);
  const LoadPattern pat = LoadPattern::constant(2000.0);
  q.set_pattern(&pat, 0);
  q.run_until(seconds(10));
  EXPECT_NEAR(static_cast<double>(q.completed()), 20000.0, 600.0);
}

// Property: open-loop M/M/1-ish sojourn time follows ~S/(1-u) scaling. Our
// service times are nearly deterministic (M/D/1), whose mean wait is half
// M/M/1's, so check the band between the two.
class QueueUtilizationSweep : public ::testing::TestWithParam<double> {};

TEST_P(QueueUtilizationSweep, MeanSojournWithinTheoryBand) {
  const double u = GetParam();
  TieredMemory::Config mc =
      TieredMemory::Config::two_tier(1, 1 << 16);
  TieredMemory mem(mc);
  LCWorkload wl(mem, 0, queue_test_config(1), kTierOnly(Tier::kSMem), 4);
  const double s = static_cast<double>(wl.ideal_service_time(Tier::kSMem));  // ns
  const double lambda = u * 1e9 / s;
  QueueSim q(wl, seconds(100), 5);
  const LoadPattern pat = LoadPattern::constant(lambda);
  q.set_pattern(&pat, 0);
  q.run_until(seconds(40));
  const auto& windows = q.recorder().windows();
  ASSERT_FALSE(windows.empty());
  const double mean = windows[0].mean;
  const double mm1 = s / (1.0 - u);
  const double md1 = s * (1.0 + u / (2.0 * (1.0 - u)));
  EXPECT_GT(mean, md1 * 0.8) << "u=" << u;
  EXPECT_LT(mean, mm1 * 1.2) << "u=" << u;
}

INSTANTIATE_TEST_SUITE_P(Utilizations, QueueUtilizationSweep,
                         ::testing::Values(0.3, 0.5, 0.7, 0.9));

TEST(QueueSim, LatencyDivergesAboveSaturation) {
  TieredMemory::Config mc =
      TieredMemory::Config::two_tier(1, 1 << 16);
  TieredMemory mem(mc);
  LCWorkload wl(mem, 0, queue_test_config(1), kTierOnly(Tier::kSMem), 6);
  const double s = static_cast<double>(wl.ideal_service_time(Tier::kSMem));
  QueueSim q(wl, seconds(1), 7);
  const LoadPattern pat = LoadPattern::constant(1.3 * 1e9 / s);  // 130% load
  q.set_pattern(&pat, 0);
  q.run_until(seconds(20));
  const auto p99 = q.recorder().p99_series();
  // Sojourn must grow roughly linearly with time under overload.
  EXPECT_GT(p99.back(), 10 * p99.front());
  EXPECT_GT(p99.back(), seconds(1));  // seconds of backlog after 20 s at 130%
}

TEST(QueueSim, MultiServerOutpacesSingleServer) {
  TieredMemory::Config mc =
      TieredMemory::Config::two_tier(1, 1 << 17);
  TieredMemory mem(mc);
  LCWorkload wl1(mem, 0, queue_test_config(1), kTierOnly(Tier::kSMem), 8);
  // Same per-request service time (max load scaled with the thread count),
  // eight servers instead of one.
  LCConfig cfg8 = queue_test_config(8);
  cfg8.max_load_krps *= 8;
  LCWorkload wl8(mem, 1, cfg8, kTierOnly(Tier::kSMem), 8);
  // Same offered load near single-server saturation.
  const double s = static_cast<double>(wl1.ideal_service_time(Tier::kSMem));
  const double lambda = 0.95 * 1e9 / s;
  QueueSim q1(wl1, seconds(1), 9), q8(wl8, seconds(1), 9);
  const LoadPattern pat = LoadPattern::constant(lambda);
  q1.set_pattern(&pat, 0);
  q8.set_pattern(&pat, 0);
  q1.run_until(seconds(10));
  q8.run_until(seconds(10));
  EXPECT_LT(q8.recorder().windows()[5].mean, q1.recorder().windows()[5].mean);
}

TEST(QueueSim, IntervalCompletionCounter) {
  TieredMemory::Config mc =
      TieredMemory::Config::two_tier(1, 1 << 16);
  TieredMemory mem(mc);
  LCWorkload wl(mem, 0, queue_test_config(1), kTierOnly(Tier::kSMem), 10);
  QueueSim q(wl, seconds(1), 11);
  const LoadPattern pat = LoadPattern::constant(1000.0);
  q.set_pattern(&pat, 0);
  q.run_until(seconds(1));
  const auto first = q.take_interval_completed();
  EXPECT_NEAR(static_cast<double>(first), 1000.0, 150.0);
  EXPECT_EQ(q.take_interval_completed(), 0u);
}

TEST(QueueSim, ZeroRatePatternServesNothing) {
  TieredMemory::Config mc =
      TieredMemory::Config::two_tier(1, 1 << 16);
  TieredMemory mem(mc);
  LCWorkload wl(mem, 0, queue_test_config(1), kTierOnly(Tier::kSMem), 12);
  QueueSim q(wl, seconds(1), 13);
  const LoadPattern pat = LoadPattern::constant(0.0);
  q.set_pattern(&pat, 0);
  q.run_until(seconds(5));
  EXPECT_EQ(q.completed(), 0u);
}

}  // namespace
}  // namespace mtat

namespace mtat {
namespace {

TEST(QueueSim, PatternSwapMidRunTakesEffect) {
  TieredMemory::Config mc =
      TieredMemory::Config::two_tier(1, 1 << 16);
  TieredMemory mem(mc);
  LCWorkload wl(mem, 0, queue_test_config(1), kTierOnly(Tier::kSMem), 30);
  QueueSim q(wl, seconds(1), 31);
  const LoadPattern slow = LoadPattern::constant(500.0);
  const LoadPattern fast = LoadPattern::constant(4000.0);
  q.set_pattern(&slow, 0);
  q.run_until(seconds(4));
  const auto at_slow = q.completed();
  q.set_pattern(&fast, seconds(4));
  q.run_until(seconds(8));
  const auto in_fast = q.completed() - at_slow;
  EXPECT_NEAR(static_cast<double>(at_slow), 2000.0, 300.0);
  EXPECT_NEAR(static_cast<double>(in_fast), 16000.0, 900.0);
}

}  // namespace
}  // namespace mtat

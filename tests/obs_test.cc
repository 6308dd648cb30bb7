// Observability subsystem: metrics registry, trace recorder + Chrome export,
// run manifests, and the sim integration (registry-derived SimResult fields,
// trace events emitted by an instrumented run).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/host_cpus.h"
#include "common/simd_level.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "sim/colocation_sim.h"
#include "sim/experiments.h"
#include "workloads/be/be_suite.h"

namespace mtat {
namespace {

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// ---------------------------------------------------------------- metrics --

TEST(Metrics, CounterAccumulatesFractionsAndResets) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0.0);
  c.inc();
  c.inc(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  c.reset();
  EXPECT_EQ(c.value(), 0.0);
}

TEST(Metrics, GaugeLastWriteAndWatermark) {
  obs::Gauge g;
  g.set(5.0);
  g.set(2.0);
  EXPECT_EQ(g.value(), 2.0);  // last write wins
  g.set_max(1.0);
  EXPECT_EQ(g.value(), 2.0);  // watermark keeps the max
  g.set_max(9.0);
  EXPECT_EQ(g.value(), 9.0);
}

TEST(Metrics, HistogramRecordsDistribution) {
  obs::Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_GT(h.mean(), 0.0);
  EXPECT_LE(h.min(), h.max());
  EXPECT_LE(h.percentile(50.0), h.percentile(99.0));
}

TEST(Metrics, RegistryReferencesAreStable) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("pages");
  obs::Gauge& g = reg.gauge("factor");
  // Registering many more metrics must not invalidate earlier references.
  // (Built with += rather than operator+: GCC 12's -Wrestrict false-positives
  // on inlined string operator+ chains at -O3.)
  for (int i = 0; i < 200; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    reg.counter(name);
  }
  c.inc(7.0);
  g.set(3.0);
  EXPECT_EQ(reg.find_counter("pages")->value(), 7.0);
  EXPECT_EQ(reg.find_gauge("factor")->value(), 3.0);
  EXPECT_EQ(&reg.counter("pages"), &c);  // same object on re-lookup
}

TEST(Metrics, FindReturnsNullWhenMissing) {
  obs::MetricsRegistry reg;
  reg.counter("exists");
  EXPECT_NE(reg.find_counter("exists"), nullptr);
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
  EXPECT_EQ(reg.find_gauge("exists"), nullptr);  // wrong kind
  EXPECT_EQ(reg.find_histogram("exists"), nullptr);
}

TEST(Metrics, WriteJsonCoversAllKinds) {
  obs::MetricsRegistry reg;
  reg.counter(obs::names::kMigrationPagesMoved).inc(42.0);
  reg.gauge(obs::names::kBwFmemFactor).set(1.5);
  reg.histogram(obs::names::kPpmDecideWallUs).record(10);
  std::ostringstream os;
  reg.write_json(os);
  const std::string s = os.str();
  EXPECT_TRUE(contains(s, "\"counters\""));
  EXPECT_TRUE(contains(s, "\"migration.pages_moved\":42"));
  EXPECT_TRUE(contains(s, "\"gauges\""));
  EXPECT_TRUE(contains(s, "\"bw.fmem_factor\":1.5"));
  EXPECT_TRUE(contains(s, "\"histograms\""));
  EXPECT_TRUE(contains(s, "\"count\":1"));
  EXPECT_TRUE(contains(s, "\"p99\""));
}

TEST(Metrics, WriteCsvOneRowPerScalar) {
  obs::MetricsRegistry reg;
  reg.counter("a").inc(1.0);
  reg.gauge("b").set(2.0);
  std::ostringstream os;
  reg.write_csv(os);
  const std::string s = os.str();
  EXPECT_TRUE(contains(s, "kind,name,field,value"));
  EXPECT_TRUE(contains(s, "counter,a,value,1"));
  EXPECT_TRUE(contains(s, "gauge,b,value,2"));
}

TEST(Json, EscapesSpecialCharacters) {
  EXPECT_EQ(obs::json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  std::ostringstream os;
  obs::json_number(os, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(os.str(), "null");  // NaN must not produce invalid JSON
}

// ------------------------------------------------------------------ trace --

// The recorder is a process-wide singleton; every test starts from a clean
// enabled state and leaves it disabled so the rest of the suite (and the
// MTAT_TRACE env hook) see no leftover events.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::trace().enable(64);
    obs::trace().clear();
    obs::trace().set_now(0);
    obs::trace().set_track(0);
  }
  void TearDown() override {
    obs::trace().clear();
    obs::trace().disable();
  }
};

TEST_F(TraceTest, DisabledTracingRecordsNoEvents) {
  obs::trace().disable();
  obs::trace().instant("a", "t");
  obs::trace().complete("b", "t", 0, 100);
  obs::trace().counter("c", "t", "k", 1.0);
  { obs::WallSpan span(&obs::trace(), "d", "t"); }
  EXPECT_EQ(obs::trace().size(), 0u);
  EXPECT_EQ(obs::trace().dropped(), 0u);
}

TEST_F(TraceTest, RecordsTypedEventsWithSimTimestamps) {
  obs::trace().set_now(1000);
  obs::trace().instant("tick", "sim", "k", 3.0);
  obs::trace().complete("span", "sim", 2000, 500, "pages", 7.0);
  obs::trace().counter("load", "sim", "rps", 12.0);
  ASSERT_EQ(obs::trace().size(), 3u);
  const auto events = obs::trace().snapshot();
  EXPECT_EQ(events[0].phase, 'i');
  EXPECT_EQ(events[0].ts, 1000u);
  EXPECT_EQ(events[0].arg1, 3.0);
  EXPECT_EQ(events[1].phase, 'X');
  EXPECT_EQ(events[1].ts, 2000u);
  EXPECT_EQ(events[1].dur, 500u);
  EXPECT_STREQ(events[1].arg1_name, "pages");
  EXPECT_EQ(events[2].phase, 'C');
}

TEST_F(TraceTest, RingOverwritesOldestAndCountsDropped) {
  obs::trace().enable(8);  // shrink the ring
  obs::trace().clear();
  for (int i = 0; i < 20; ++i)
    obs::trace().instant("e", "t", "i", static_cast<double>(i));
  EXPECT_EQ(obs::trace().size(), 8u);
  EXPECT_EQ(obs::trace().capacity(), 8u);
  EXPECT_EQ(obs::trace().dropped(), 12u);
  const auto events = obs::trace().snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i)  // oldest survivor first
    EXPECT_EQ(events[i].arg1, static_cast<double>(12 + i));
}

TEST_F(TraceTest, ConcurrentRecordersClaimDistinctSlots) {
  // Record calls are the one TraceRecorder operation documented as
  // thread-safe: each push claims a distinct ring slot via the atomic write
  // cursor. Run under TSan (tools/check.sh tsan lane) this is the regression
  // test for that contract.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  obs::trace().enable(kThreads * kPerThread);  // no wrap: every event survives
  obs::trace().clear();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i)
        obs::trace().instant("e", "t", "thread", static_cast<double>(t));
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(obs::trace().size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(obs::trace().dropped(), 0u);
  // Every thread's events all landed: no slot was lost to a torn index.
  std::array<int, kThreads> per_thread{};
  for (const auto& e : obs::trace().snapshot())
    ++per_thread[static_cast<int>(e.arg1)];
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(per_thread[t], kPerThread);
}

TEST_F(TraceTest, ChromeJsonUsesMicrosecondTimestamps) {
  obs::trace().complete("mig", "mem", /*ts=*/2000, /*dur=*/3000, "pages", 4.0);
  obs::trace().set_now(5000);
  obs::trace().instant("dec", "policy");
  std::ostringstream os;
  obs::trace().write_chrome_json(os);
  const std::string s = os.str();
  EXPECT_TRUE(contains(s, "\"traceEvents\""));
  EXPECT_TRUE(contains(s, "\"name\":\"mig\""));
  EXPECT_TRUE(contains(s, "\"ph\":\"X\""));
  EXPECT_TRUE(contains(s, "\"ts\":2"));   // 2000 ns -> 2 us
  EXPECT_TRUE(contains(s, "\"dur\":3"));  // 3000 ns -> 3 us
  EXPECT_TRUE(contains(s, "\"ph\":\"i\""));
  EXPECT_TRUE(contains(s, "\"pages\":4"));
  EXPECT_TRUE(contains(s, "\"displayTimeUnit\""));
}

TEST_F(TraceTest, WallSpanFeedsMetricsAndTrace) {
  obs::MetricsRegistry reg;
  obs::Counter& sum = reg.counter(obs::names::kPolicyWallUs);
  obs::Histogram& hist = reg.histogram(obs::names::kPolicyWallUsHist);
  obs::trace().set_now(7000);
  { obs::WallSpan span(&obs::trace(), "work", "policy", &sum, &hist); }
  EXPECT_GT(sum.value(), 0.0);
  EXPECT_EQ(hist.count(), 1u);
  ASSERT_EQ(obs::trace().size(), 1u);
  const auto events = obs::trace().snapshot();
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_EQ(events[0].ts, 7000u);  // placed at sim time, wall duration
  EXPECT_STREQ(events[0].arg1_name, "wall_us");
}

// --------------------------------------------------------------- manifest --

TEST(Manifest, WritesSchemaAndFields) {
  obs::RunManifest m;
  m.tool = "unit_test";
  m.scale = "small";
  m.seed = 42;
  m.train_epochs = 5;
  m.add("policy", "mtat");
  std::ostringstream os;
  m.write_json(os);
  const std::string s = os.str();
  EXPECT_TRUE(contains(s, "\"schema\":\"mtat.run_manifest/1\""));
  EXPECT_TRUE(contains(s, "\"tool\":\"unit_test\""));
  EXPECT_TRUE(contains(s, "\"git_sha\""));
  // The vector level the kernels ran at on this host.
  EXPECT_TRUE(
      contains(s, std::string("\"simd\":\"") + simd_level_name(host_simd_level()) + "\""));
  // The tenant lanes this host allows a sim.
  EXPECT_TRUE(contains(s, "\"lanes\":" + std::to_string(host_lane_limit()) + ","));
  EXPECT_TRUE(contains(s, "\"scale\":\"small\""));
  EXPECT_TRUE(contains(s, "\"seed\":42"));
  EXPECT_TRUE(contains(s, "\"train_epochs\":5"));
  EXPECT_TRUE(contains(s, "\"policy\":\"mtat\""));
  EXPECT_STRNE(obs::build_git_sha(), "");
}

TEST(Manifest, EmptyScaleReportsCustom) {
  obs::RunManifest m;
  m.tool = "cli";
  std::ostringstream os;
  m.write_json(os);
  EXPECT_TRUE(contains(os.str(), "\"scale\":\"custom\""));
}

// -------------------------------------------------------- sim integration --

SimConfig obs_tiny_config(PolicyKind policy) {
  SimConfig cfg;
  cfg.fmem = 32_MiB;
  cfg.smem = 512_MiB;
  cfg.lc = redis_config();
  cfg.lc.n_records = 30'000;
  cfg.be = be_suite(BEScale::kTest, 36_MiB, 4, 2);
  cfg.policy = policy;
  return cfg;
}

TEST(SimObservability, RegistryDerivedValuesMatchSimResult) {
  SimConfig cfg = obs_tiny_config(PolicyKind::kMemtis);
  ColocationSim sim(cfg);
  sim.run(LoadPattern::constant(cfg.lc.max_load_krps * 100.0), seconds(5));
  const SimResult r = sim.result();
  const obs::MetricsRegistry& reg = sim.metrics();
  // The SimResult overhead fields are views over the registry: the derived.*
  // gauges must carry exactly the same numbers.
  ASSERT_NE(reg.find_gauge(obs::names::kDerivedMigrationBytesPerSec), nullptr);
  ASSERT_NE(reg.find_gauge(obs::names::kDerivedPolicyWallUsPerInterval), nullptr);
  EXPECT_DOUBLE_EQ(reg.find_gauge(obs::names::kDerivedMigrationBytesPerSec)->value(),
                   r.migration_bytes_per_sec);
  EXPECT_DOUBLE_EQ(reg.find_gauge(obs::names::kDerivedPolicyWallUsPerInterval)->value(),
                   r.policy_wall_us_per_interval);
  // And the raw signals behind them are populated.
  ASSERT_NE(reg.find_counter(obs::names::kSimIntervals), nullptr);
  EXPECT_EQ(reg.find_counter(obs::names::kSimIntervals)->value(), 5.0);
  EXPECT_EQ(reg.find_counter(obs::names::kSimMeasuredIntervals)->value(), 5.0);
  EXPECT_GT(reg.find_counter(obs::names::kPolicyWallUs)->value(), 0.0);
  EXPECT_GT(reg.find_counter(obs::names::kMigrationPagesMoved)->value(), 0.0);  // displacement
  EXPECT_GT(reg.find_counter(obs::names::kQueueArrivals)->value(), 0.0);
  EXPECT_GT(r.policy_wall_us_per_interval, 0.0);
}

TEST(SimObservability, ResetStatsRebasesDerivedMetrics) {
  SimConfig cfg = obs_tiny_config(PolicyKind::kMemtis);
  ColocationSim sim(cfg);
  sim.run(LoadPattern::constant(cfg.lc.max_load_krps * 100.0), seconds(3), /*measure=*/false);
  sim.reset_stats();
  sim.run(LoadPattern::constant(cfg.lc.max_load_krps * 100.0), seconds(3));
  const SimResult r = sim.result();
  // Counters keep the warmup, but the derived per-interval view is rebased to
  // the measured phase: 3 measured intervals out of 6 total.
  EXPECT_EQ(sim.metrics().find_counter(obs::names::kSimIntervals)->value(), 6.0);
  EXPECT_EQ(sim.metrics().find_counter(obs::names::kSimMeasuredIntervals)->value(), 3.0);
  EXPECT_GT(r.policy_wall_us_per_interval, 0.0);
  EXPECT_DOUBLE_EQ(sim.metrics().find_gauge(obs::names::kDerivedPolicyWallUsPerInterval)->value(),
                   r.policy_wall_us_per_interval);
}

TEST(SimObservability, MtatPolicyPublishesRlAndPpmMetrics) {
  SimConfig cfg = obs_tiny_config(PolicyKind::kMtatFull);
  ColocationSim sim(cfg);
  // The SAC agent only starts updating once its replay buffer holds 50
  // samples (one per interval), so run past that warmup.
  sim.run(LoadPattern::constant(cfg.lc.max_load_krps * 200.0), seconds(55));
  const obs::MetricsRegistry& reg = sim.metrics();
  ASSERT_NE(reg.find_counter(obs::names::kPpmDecisions), nullptr);
  EXPECT_GT(reg.find_counter(obs::names::kPpmDecisions)->value(), 0.0);
  ASSERT_NE(reg.find_counter(obs::names::kPpePlans), nullptr);
  EXPECT_GT(reg.find_counter(obs::names::kPpePlans)->value(), 0.0);
  ASSERT_NE(reg.find_counter(obs::names::kRlUpdates), nullptr);
  EXPECT_GT(reg.find_counter(obs::names::kRlUpdates)->value(), 0.0);
  ASSERT_NE(reg.find_histogram(obs::names::kPpmDecideWallUs), nullptr);
  EXPECT_GT(reg.find_histogram(obs::names::kPpmDecideWallUs)->count(), 0u);
  ASSERT_NE(reg.find_gauge(obs::names::kMtatLcQuotaPages), nullptr);
}

TEST_F(TraceTest, InstrumentedRunEmitsMigrationPolicyAndIntervalSpans) {
  // The acceptance scenario: a traced run must contain migration spans,
  // policy-decision events, and interval spans.
  SimConfig cfg = obs_tiny_config(PolicyKind::kMemtis);
  obs::trace().enable();  // default capacity; TraceTest shrank it to 64
  obs::trace().clear();
  ColocationSim sim(cfg);
  sim.run(LoadPattern::constant(cfg.lc.max_load_krps * 100.0), seconds(5));
  const auto events = obs::trace().snapshot();
  auto count_named = [&](const char* name) {
    return std::count_if(events.begin(), events.end(), [&](const obs::TraceEvent& e) {
      return std::string(e.name) == name;
    });
  };
  EXPECT_GE(count_named(obs::names::kEvInterval), 5);           // one 'X' span per interval
  EXPECT_GE(count_named(obs::names::kEvPolicyOnInterval), 5); // wall span per rollover
  EXPECT_GT(count_named(obs::names::kEvMigration), 0);          // displacement moved pages
  // And the export of a real run is well-formed Chrome JSON.
  std::ostringstream os;
  obs::trace().write_chrome_json(os);
  EXPECT_TRUE(contains(os.str(), "\"traceEvents\""));
  EXPECT_TRUE(contains(os.str(), "\"name\":\"interval\""));
}

TEST(SimObservability, UntracedRunRecordsNoEvents) {
  // Tracing is default-off: a full instrumented run must leave the global
  // recorder empty (the near-zero disabled cost contract).
  obs::trace().clear();
  obs::trace().disable();
  SimConfig cfg = obs_tiny_config(PolicyKind::kMemtis);
  ColocationSim sim(cfg);
  sim.run(LoadPattern::constant(cfg.lc.max_load_krps * 100.0), seconds(3));
  EXPECT_EQ(obs::trace().size(), 0u);
}

}  // namespace
}  // namespace mtat

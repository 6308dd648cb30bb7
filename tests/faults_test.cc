// Fault-injection subsystem tests (DESIGN.md §12): plan parsing and windows,
// injector determinism and stream independence, each injection site
// (telemetry, migration engine, RL agent, simulator), the graceful-
// degradation machinery (backoff/retry/rollback, the watchdog ladder), and
// the two headline guarantees — an empty plan changes nothing, and a faulted
// run is bit-identical for the same seed and plan.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/mtat_policy.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "mem/migration_engine.h"
#include "mem/tiered_memory.h"
#include "obs/names.h"
#include "obs/run_context.h"
#include "rl/sac.h"
#include "sim/colocation_sim.h"
#include "telemetry/access_sampler.h"
#include "workloads/be/be_suite.h"

namespace mtat {
namespace {

using faults::FaultInjector;
using faults::FaultPlan;
using faults::FaultWindow;

double counter_value(const obs::RunContext& ctx, const char* name) {
  const obs::Counter* c = ctx.metrics().find_counter(name);
  return c != nullptr ? c->value() : 0.0;
}

// ---------------------------------------------------------------- FaultPlan --

TEST(FaultWindowTest, OneShotAndPeriodicContainment) {
  const FaultWindow once{seconds(10), seconds(5), 0};
  EXPECT_FALSE(once.contains(seconds(9)));
  EXPECT_TRUE(once.contains(seconds(10)));
  EXPECT_TRUE(once.contains(seconds(14)));
  EXPECT_FALSE(once.contains(seconds(15)));

  const FaultWindow periodic{seconds(10), seconds(5), seconds(30)};
  EXPECT_TRUE(periodic.contains(seconds(40)));   // second cycle
  EXPECT_FALSE(periodic.contains(seconds(45)));  // past the window
  EXPECT_TRUE(periodic.contains(seconds(70)));   // third cycle

  const FaultWindow empty{seconds(10), 0, 0};
  EXPECT_FALSE(empty.contains(seconds(10)));
}

TEST(FaultPlanTest, DefaultPlanInjectsNothing) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.any());
}

TEST(FaultPlanTest, StormScalesWithIntensityAndValidates) {
  EXPECT_FALSE(FaultPlan::storm(0.0).any());
  const FaultPlan half = FaultPlan::storm(0.5);
  const FaultPlan full = FaultPlan::storm(1.0);
  EXPECT_TRUE(half.any());
  EXPECT_DOUBLE_EQ(full.sample_loss_prob, 2.0 * half.sample_loss_prob);
  EXPECT_DOUBLE_EQ(full.burst_failure_prob, 1.0);  // total outage at 1.0
  EXPECT_LT(full.bandwidth_collapse_factor, half.bandwidth_collapse_factor);
  EXPECT_FALSE(full.telemetry_blackouts.empty());
  EXPECT_THROW(FaultPlan::storm(-0.1), std::invalid_argument);
  EXPECT_THROW(FaultPlan::storm(1.1), std::invalid_argument);
}

TEST(FaultPlanTest, FromSpecParsesPresetAndIntensity) {
  const auto bare = FaultPlan::from_spec("storm");
  ASSERT_TRUE(bare.has_value());
  EXPECT_DOUBLE_EQ(bare->burst_failure_prob, 1.0);
  const auto scaled = FaultPlan::from_spec("storm:0.5");
  ASSERT_TRUE(scaled.has_value());
  EXPECT_DOUBLE_EQ(scaled->burst_failure_prob, 0.5);
  EXPECT_FALSE(FaultPlan::from_spec("hurricane").has_value());
  EXPECT_FALSE(FaultPlan::from_spec("storm:abc").has_value());
  EXPECT_FALSE(FaultPlan::from_spec("storm:1.5").has_value());
  EXPECT_FALSE(FaultPlan::from_spec("storm:-1").has_value());
}

TEST(FaultPlanTest, NormalizeDropsZeroLengthWindows) {
  FaultPlan plan;
  plan.telemetry_blackouts = {{seconds(10), 0, 0}, {seconds(20), 0, seconds(30)}};
  // Raw, the schedule looks armed — normalization reveals it injects nothing.
  EXPECT_TRUE(plan.any());
  const FaultPlan canon = plan.normalized();
  EXPECT_TRUE(canon.telemetry_blackouts.empty());
  EXPECT_FALSE(canon.any());
}

TEST(FaultPlanTest, NormalizeMergesOverlappingAndAbuttingOneShots) {
  std::vector<FaultWindow> windows = {{seconds(8), seconds(2), 0},
                                      {seconds(0), seconds(4), 0},
                                      {seconds(3), seconds(5), 0}};
  faults::normalize_windows(windows);
  // (0,4) overlaps (3,5) -> (0,8), which abuts (8,2) -> one window (0,10).
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].start, seconds(0));
  EXPECT_EQ(windows[0].length, seconds(10));
  EXPECT_EQ(windows[0].period, Duration{0});
}

TEST(FaultPlanTest, NormalizeMergesSamePeriodAndKeepsPeriodsApart) {
  std::vector<FaultWindow> windows = {{seconds(4), seconds(8), seconds(10)},
                                      {seconds(0), seconds(6), seconds(10)},
                                      {seconds(0), seconds(3), seconds(20)}};
  faults::normalize_windows(windows);
  ASSERT_EQ(windows.size(), 2u);
  // Same-period pair merges and clamps to the full cycle; the 20 s window is
  // untouched — cross-period overlap varies per cycle, so no merge there.
  EXPECT_EQ(windows[0].start, seconds(0));
  EXPECT_EQ(windows[0].length, seconds(10));
  EXPECT_EQ(windows[0].period, seconds(10));
  EXPECT_EQ(windows[1].start, seconds(0));
  EXPECT_EQ(windows[1].length, seconds(3));
  EXPECT_EQ(windows[1].period, seconds(20));
}

TEST(FaultPlanTest, NormalizeRejectsInvertedPeriodicWindows) {
  FaultPlan plan;
  plan.migration_failure_bursts = {{seconds(0), seconds(11), seconds(10)}};
  EXPECT_THROW(plan.normalized(), std::invalid_argument);
  std::vector<FaultWindow> windows = {{seconds(0), seconds(11), seconds(10)}};
  EXPECT_THROW(faults::normalize_windows(windows), std::invalid_argument);
}

TEST(FaultPlanTest, InjectorExecutesTheNormalizedSchedule) {
  FaultPlan plan;
  plan.telemetry_blackouts = {{seconds(5), 0, 0},  // dead weight: dropped
                              {seconds(0), seconds(4), 0},
                              {seconds(3), seconds(5), 0}};
  const FaultInjector injector(plan);
  ASSERT_EQ(injector.plan().telemetry_blackouts.size(), 1u);
  EXPECT_EQ(injector.plan().telemetry_blackouts[0].start, seconds(0));
  EXPECT_EQ(injector.plan().telemetry_blackouts[0].length, seconds(8));
}

TEST(FaultPlanTest, DefaultPlanReachesNewRunContexts) {
  ASSERT_EQ(faults::default_plan(), nullptr);  // tests run without MTAT_FAULTS
  faults::set_default_plan(FaultPlan::storm(0.25));
  {
    obs::RunContext ctx;
    ASSERT_NE(ctx.faults(), nullptr);
    EXPECT_DOUBLE_EQ(ctx.faults()->plan().burst_failure_prob, 0.25);
  }
  faults::clear_default_plan();
  obs::RunContext clean;
  EXPECT_EQ(clean.faults(), nullptr);
}

// ------------------------------------------------------------ FaultInjector --

TEST(FaultInjectorTest, SamePlanSameDrawSequence) {
  FaultPlan plan;
  plan.sample_loss_prob = 0.5;
  plan.migration_failure_prob = 0.5;
  FaultInjector a(plan), b(plan);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.drop_sample(), b.drop_sample());
    EXPECT_EQ(a.fail_migration(), b.fail_migration());
  }
}

TEST(FaultInjectorTest, CategoriesDrawFromIndependentStreams) {
  FaultPlan plan;
  plan.sample_loss_prob = 0.5;
  plan.migration_failure_prob = 0.5;
  FaultInjector plain(plan), interleaved(plan);
  std::vector<bool> expect;
  for (int i = 0; i < 100; ++i) expect.push_back(plain.fail_migration());
  for (int i = 0; i < 100; ++i) {
    interleaved.drop_sample();  // telemetry draws must not shift migration's
    EXPECT_EQ(interleaved.fail_migration(), expect[static_cast<std::size_t>(i)]) << i;
  }
}

TEST(FaultInjectorTest, ZeroProbabilityQueriesConsumeNoRandomness) {
  FaultPlan plan;
  plan.sample_loss_prob = 0.5;  // corruption stays 0 on the same stream
  FaultInjector plain(plan), interleaved(plan);
  for (int i = 0; i < 100; ++i) {
    interleaved.corrupt_sample();  // zero-probability: must be a pure no-op
    EXPECT_EQ(interleaved.drop_sample(), plain.drop_sample()) << i;
  }
}

TEST(FaultInjectorTest, WindowQueriesFollowSetNow) {
  FaultPlan plan;
  plan.telemetry_blackouts = {{seconds(10), seconds(5), 0}};
  plan.smem_latency_spikes = {{seconds(20), seconds(5), 0}};
  plan.smem_spike_factor = 3.0;
  FaultInjector inj(plan);
  EXPECT_FALSE(inj.telemetry_blackout());
  EXPECT_DOUBLE_EQ(inj.smem_latency_factor(), 1.0);
  inj.set_now(seconds(12));
  EXPECT_TRUE(inj.telemetry_blackout());
  EXPECT_TRUE(inj.drop_sample());  // blackout drops without a draw
  inj.set_now(seconds(22));
  EXPECT_FALSE(inj.telemetry_blackout());
  EXPECT_DOUBLE_EQ(inj.smem_latency_factor(), 3.0);
}

// ------------------------------------------------------------- AccessSampler --

TEST(FaultSamplerTest, BlackoutDropsEverySampleAndCounts) {
  TieredMemory::Config mc =
      TieredMemory::Config::two_tier(16, 64);
  TieredMemory mem(mc);
  const auto pages = mem.allocate(0, 8, kFastestFirst);
  obs::RunContext ctx;
  FaultPlan plan;
  plan.telemetry_blackouts = {{0, seconds(100), 0}};
  ctx.install_faults(plan);
  AccessSampler sampler(mem);
  sampler.set_faults(ctx.faults(), ctx);
  for (int i = 0; i < 10; ++i) sampler.on_sampled_access(0, pages[0], AccessKind::kRead);
  EXPECT_EQ(sampler.collect(0).total(), 0u);
  EXPECT_DOUBLE_EQ(counter_value(ctx, obs::names::kFaultSamplesDropped), 10.0);
}

TEST(FaultSamplerTest, CorruptionMisattributesWithinTheWorkload) {
  TieredMemory::Config mc =
      TieredMemory::Config::two_tier(4, 64);
  TieredMemory mem(mc);
  // 4 pages land in FMem, 28 spill to SMem: a corrupted sample of an FMem
  // page will mostly be misattributed to an SMem one.
  mem.allocate(0, 32, kFastestFirst);
  const PageId fmem_page = mem.pages_of(0)[0];
  ASSERT_EQ(mem.tier_of(fmem_page), Tier::kFMem);
  obs::RunContext ctx;
  FaultPlan plan;
  plan.sample_corruption_prob = 1.0;
  ctx.install_faults(plan);
  AccessSampler sampler(mem);
  sampler.set_faults(ctx.faults(), ctx);
  for (int i = 0; i < 64; ++i) sampler.on_sampled_access(0, fmem_page, AccessKind::kRead);
  const IntervalCounters c = sampler.collect(0);
  EXPECT_EQ(c.total(), 64u);       // corrupted samples still count...
  EXPECT_GT(c.smem_accesses(), 0u);  // ...but against the wrong pages/tiers
  EXPECT_DOUBLE_EQ(counter_value(ctx, obs::names::kFaultSamplesCorrupted), 64.0);
}

// ---------------------------------------------------------- MigrationEngine --

/// 100 pages/s of budget, an FMem/SMem split population, and a one-shot
/// total-failure burst over [0, 5 s).
struct EngineFixture {
  TieredMemory mem;
  obs::RunContext ctx;
  MigrationEngine engine;
  std::vector<PageId> fmem_pages, smem_pages;

  explicit EngineFixture(FaultPlan plan)
      : mem([] {
          TieredMemory::Config mc =
              TieredMemory::Config::two_tier(32, 64);
          return mc;
        }()),
        engine(mem, {100.0 * static_cast<double>(kPageSize)}) {
    fmem_pages = mem.allocate(0, 8, kTierOnly(Tier::kFMem));
    smem_pages = mem.allocate(1, 8, kTierOnly(Tier::kSMem));
    ctx.install_faults(plan);
    engine.set_run_context(&ctx);
    engine.begin_interval(seconds(1));
  }
};

FaultPlan burst_plan() {
  FaultPlan plan;
  plan.migration_failure_bursts = {{0, seconds(5), 0}};
  plan.burst_failure_prob = 1.0;
  return plan;
}

TEST(FaultEngineTest, InjectedAbortBurnsBudgetWithoutMoving) {
  EngineFixture f(burst_plan());
  const std::uint64_t budget = f.engine.budget_pages();
  EXPECT_FALSE(f.engine.promote(f.smem_pages[0]));
  EXPECT_EQ(f.mem.tier_of(f.smem_pages[0]), Tier::kSMem);
  EXPECT_EQ(f.engine.budget_pages(), budget - 1);  // the wasted copy
  EXPECT_EQ(f.engine.total_pages_moved(), 0u);
  EXPECT_DOUBLE_EQ(counter_value(f.ctx, obs::names::kFaultMigrationFailures), 1.0);
}

TEST(FaultEngineTest, FailureStreakOpensBackoffThatFailsFast) {
  EngineFixture f(burst_plan());
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(f.engine.promote(f.smem_pages[0]));
  EXPECT_TRUE(f.engine.in_backoff());
  EXPECT_DOUBLE_EQ(counter_value(f.ctx, obs::names::kFaultMigrationFailures), 4.0);
  // Fail-fast: attempts during the window neither draw nor burn budget.
  const std::uint64_t budget = f.engine.budget_pages();
  EXPECT_FALSE(f.engine.promote(f.smem_pages[1]));
  EXPECT_EQ(f.engine.budget_pages(), budget);
  EXPECT_DOUBLE_EQ(counter_value(f.ctx, obs::names::kFaultMigrationFailures), 4.0);
}

TEST(FaultEngineTest, RetryAfterBackoffIsCountedAndCanSucceed) {
  EngineFixture f(burst_plan());
  for (int i = 0; i < 4; ++i) f.engine.promote(f.smem_pages[0]);
  ASSERT_TRUE(f.engine.in_backoff());
  // Drain the 2-tick window; each tick is counted.
  f.engine.begin_interval(seconds(1));
  f.engine.begin_interval(seconds(1));
  EXPECT_FALSE(f.engine.in_backoff());
  EXPECT_DOUBLE_EQ(counter_value(f.ctx, obs::names::kMigrationBackoffTicks), 2.0);
  // Past the burst window the retry goes through — and is counted as one.
  f.ctx.faults()->set_now(seconds(6));
  EXPECT_TRUE(f.engine.promote(f.smem_pages[0]));
  EXPECT_EQ(f.mem.tier_of(f.smem_pages[0]), Tier::kFMem);
  EXPECT_DOUBLE_EQ(counter_value(f.ctx, obs::names::kMigrationRetries), 1.0);
}

TEST(FaultEngineTest, AbortedExchangeRollsBackBothPages) {
  EngineFixture f(burst_plan());
  const std::uint64_t budget = f.engine.budget_pages();
  EXPECT_FALSE(f.engine.exchange(f.smem_pages[0], f.fmem_pages[0]));
  EXPECT_EQ(f.mem.tier_of(f.smem_pages[0]), Tier::kSMem);
  EXPECT_EQ(f.mem.tier_of(f.fmem_pages[0]), Tier::kFMem);
  EXPECT_EQ(f.engine.budget_pages(), budget - 2);  // both half-copies wasted
  EXPECT_DOUBLE_EQ(counter_value(f.ctx, obs::names::kFaultMigrationRollbacks), 1.0);
}

TEST(FaultEngineTest, BandwidthCollapseScalesTheRefill) {
  FaultPlan plan;
  plan.bandwidth_collapses = {{0, seconds(10), 0}};
  plan.bandwidth_collapse_factor = 0.25;
  EngineFixture f(plan);
  EXPECT_EQ(f.engine.budget_pages(), 25u);  // 100 pages/s collapsed to a quarter
  f.ctx.faults()->set_now(seconds(11));
  f.engine.begin_interval(seconds(1));
  EXPECT_EQ(f.engine.budget_pages(), 100u);  // full refill outside the window
}

// --------------------------------------------------------------------- SAC --

TEST(FaultSacTest, InjectedNanActionsAreProducedAndCounted) {
  obs::RunContext ctx;
  FaultPlan plan;
  plan.rl_nan_action_prob = 1.0;
  ctx.install_faults(plan);
  SacAgent agent{SacConfig{}};
  agent.set_run_context(&ctx);
  const std::vector<double> action = agent.act({0.5, 0.5, 0.1}, /*deterministic=*/true);
  ASSERT_FALSE(action.empty());
  for (double a : action) EXPECT_TRUE(std::isnan(a));
  EXPECT_DOUBLE_EQ(counter_value(ctx, obs::names::kFaultRlActionsCorrupted), 1.0);
}

TEST(FaultSacTest, InjectedDivergentActionsLeaveTheActionBox) {
  obs::RunContext ctx;
  FaultPlan plan;
  plan.rl_divergent_action_prob = 1.0;
  ctx.install_faults(plan);
  SacAgent agent{SacConfig{}};
  agent.set_run_context(&ctx);
  const std::vector<double> action = agent.act({0.5, 0.5, 0.1}, /*deterministic=*/true);
  ASSERT_FALSE(action.empty());
  for (double a : action) EXPECT_GT(std::abs(a), 1.0);
}

TEST(FaultSacTest, CorruptedTransitionsNeverReachTheReplayBuffer) {
  obs::RunContext ctx;
  SacAgent agent{SacConfig{}};
  agent.set_run_context(&ctx);
  const std::vector<double> s{0.5, 0.5, 0.1};
  const std::vector<double> a{0.0};
  agent.observe(s, a, std::nan(""), s, false);
  agent.observe({std::nan(""), 0.0, 0.0}, a, 0.5, s, false);
  EXPECT_EQ(agent.buffer_size(), 0u);
  EXPECT_DOUBLE_EQ(counter_value(ctx, obs::names::kRlRejectedTransitions), 2.0);
  agent.observe(s, a, 0.5, s, false);  // a healthy transition still lands
  EXPECT_EQ(agent.buffer_size(), 1u);
}

// ----------------------------------------------------------- ColocationSim --

SimConfig tiny_config(PolicyKind policy) {
  SimConfig cfg;
  cfg.fmem = 32_MiB;
  cfg.smem = 512_MiB;
  cfg.lc = redis_config();
  cfg.lc.n_records = 30'000;
  cfg.be = be_suite(BEScale::kTest, 36_MiB, 4, 2);
  cfg.policy = policy;
  cfg.bandwidth.enabled = true;
  cfg.seed = 20260806;
  return cfg;
}

SimResult run_sim(const SimConfig& cfg, obs::RunContext* ctx, double load_frac = 0.5,
                  Duration dur = seconds(8)) {
  ColocationSim sim(cfg, ctx);
  const LoadPattern pat = LoadPattern::constant(cfg.lc.max_load_krps * 1000.0 * load_frac);
  sim.run(pat, dur);
  return sim.result();
}

void expect_identical(const SimResult& a, const SimResult& b) {
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].lc_p99_ms, b.series[i].lc_p99_ms) << "interval " << i;
    EXPECT_EQ(a.series[i].lc_fmem_ratio, b.series[i].lc_fmem_ratio) << "interval " << i;
    EXPECT_EQ(a.series[i].be_throughput, b.series[i].be_throughput) << "interval " << i;
  }
  EXPECT_EQ(a.lc_p99_ms, b.lc_p99_ms);
  EXPECT_EQ(a.slo_violation_rate, b.slo_violation_rate);
  EXPECT_EQ(a.lc_completed, b.lc_completed);
  EXPECT_EQ(a.be_rate, b.be_rate);
  EXPECT_EQ(a.fairness, b.fairness);
  EXPECT_EQ(a.migration_bytes_per_sec, b.migration_bytes_per_sec);
}

TEST(FaultSimTest, EmptyPlanIsBehaviourIdenticalToNoPlan) {
  // The injector is attached but every query is a no-op: results must be
  // bit-identical to a run with no injector at all.
  const SimConfig cfg = tiny_config(PolicyKind::kMemtis);
  const SimResult clean = run_sim(cfg, nullptr);
  obs::RunContext ctx;
  ctx.install_faults(FaultPlan{});
  expect_identical(clean, run_sim(cfg, &ctx));
}

TEST(FaultSimTest, EmptyPlanIsBehaviourIdenticalForMtatWithWatchdogOff) {
  SimConfig cfg = tiny_config(PolicyKind::kMtatFull);
  cfg.mtat.watchdog.mode = MtatPolicy::Options::Watchdog::Mode::kOff;
  const SimResult clean = run_sim(cfg, nullptr);
  obs::RunContext ctx;
  ctx.install_faults(FaultPlan{});
  expect_identical(clean, run_sim(cfg, &ctx));
}

TEST(FaultSimTest, SameSeedSamePlanIsBitIdentical) {
  const SimConfig cfg = tiny_config(PolicyKind::kMtatFull);
  obs::RunContext ctx_a, ctx_b;
  ctx_a.install_faults(FaultPlan::storm(0.7));
  ctx_b.install_faults(FaultPlan::storm(0.7));
  const SimResult a = run_sim(cfg, &ctx_a);
  const SimResult b = run_sim(cfg, &ctx_b);
  expect_identical(a, b);
  for (const char* name : obs::names::kAllMetricNames) {
    if (obs::names::is_wall_time_metric(name)) continue;
    SCOPED_TRACE(name);
    const obs::Counter* ca = ctx_a.metrics().find_counter(name);
    const obs::Counter* cb = ctx_b.metrics().find_counter(name);
    ASSERT_EQ(ca == nullptr, cb == nullptr);
    if (ca != nullptr) {
      EXPECT_EQ(ca->value(), cb->value());
    }
  }
}

TEST(FaultSimTest, SmemLatencySpikeInflatesTailLatency) {
  SimConfig cfg = tiny_config(PolicyKind::kSmemAll);  // LC pinned to SMem
  cfg.bandwidth.enabled = false;  // exercise the direct spike path
  const SimResult clean = run_sim(cfg, nullptr, 0.4, seconds(5));
  FaultPlan plan;
  plan.smem_latency_spikes = {{0, seconds(1000), 0}};
  plan.smem_spike_factor = 4.0;
  obs::RunContext ctx;
  ctx.install_faults(plan);
  const SimResult spiked = run_sim(cfg, &ctx, 0.4, seconds(5));
  EXPECT_GT(spiked.lc_p99_ms, clean.lc_p99_ms);
}

TEST(FaultSimTest, TotalBlackoutTripsTheWatchdogLadder) {
  const SimConfig cfg = tiny_config(PolicyKind::kMtatFull);
  FaultPlan plan;
  plan.telemetry_blackouts = {{0, seconds(1000), 0}};
  obs::RunContext ctx;
  ctx.install_faults(plan);
  ColocationSim sim(cfg, &ctx);
  auto* mtat = dynamic_cast<MtatPolicy*>(&sim.policy());
  ASSERT_NE(mtat, nullptr);
  EXPECT_TRUE(mtat->watchdog_active());  // kAuto arms because faults are on
  const LoadPattern pat = LoadPattern::constant(cfg.lc.max_load_krps * 1000.0 * 0.5);
  sim.run(pat, seconds(8));
  // Telemetry never comes back, so the controller must have left the RL rung
  // (trip_after = 3 consecutive dark intervals) — and kept serving.
  EXPECT_NE(mtat->control_mode(), MtatPolicy::ControlMode::kRl);
  EXPECT_GE(counter_value(ctx, obs::names::kMtatModeTransitions), 1.0);
  EXPECT_GT(sim.result().lc_completed, 0u);
}

TEST(FaultSimTest, FullStormIsSurvivedByEveryPolicy) {
  // The acceptance scenario: 100% migration-failure bursts plus total
  // telemetry blackouts. Nothing may crash, hang, or stop serving.
  for (PolicyKind policy : {PolicyKind::kMtatFull, PolicyKind::kMemtis, PolicyKind::kTpp}) {
    SCOPED_TRACE(policy_name(policy));
    obs::RunContext ctx;
    ctx.install_faults(FaultPlan::storm(1.0));
    const SimResult r = run_sim(tiny_config(policy), &ctx, 0.5, seconds(12));
    EXPECT_GT(r.lc_completed, 0u);
  }
}

}  // namespace
}  // namespace mtat

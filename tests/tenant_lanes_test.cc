// Tenant lanes (DESIGN.md §14.7): a tick's BE sample streams run on helper
// threads beside the LC queue only when every consumer of a sample belongs
// to the sample's own workload, and then change nothing. Lanes forced on
// must match lanes forced off bit for bit — results, fingerprints, saved
// state bytes and registries minus wall-time rows — for MTAT full and
// LC-only on two and three tiers with the bandwidth model on, over several
// seeds, across a snapshot/restore in the middle of a run, and on ticks
// where tenants emit no samples. Every other configuration must run inline.
// Between ticks the lanes run regions of chunks (common/chunk_team.h): each
// chunk exactly once, and neither a busy caller nor a busy lane holds the
// others back by more than the chunk it is in.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/chunk_team.h"
#include "common/host_cpus.h"
#include "faults/fault_plan.h"
#include "obs/names.h"
#include "sim/colocation_sim.h"
#include "sim/experiments.h"
#include "workloads/be/be_suite.h"

namespace mtat {
namespace {

constexpr std::size_t kForceOn = 3;

SimConfig config(PolicyKind policy, int tiers, std::uint64_t seed) {
  SimConfig cfg;
  cfg.fmem = 32_MiB;
  cfg.smem = 512_MiB;
  if (tiers == 3)
    cfg.tiers = {{"dram", bytes_to_pages(32_MiB), 73, cfg.migration_bandwidth},
                 {"cxl", bytes_to_pages(128_MiB), 202, cfg.migration_bandwidth},
                 {"nvm", bytes_to_pages(512_MiB), 450}};
  cfg.lc = redis_config();
  cfg.lc.n_records = 30'000;
  // Four tenants on at most three lanes: one lane carries two.
  cfg.be = be_suite(BEScale::kTest, 24_MiB, 4, 4);
  cfg.policy = policy;
  cfg.bandwidth.enabled = true;
  // Short intervals, so aging, PP-M decisions, PP-E plans and SAC updates
  // all happen inside the runs.
  cfg.interval = milliseconds(250);
  cfg.mtat.ppm.sac.min_buffer_for_update = 2;
  cfg.mtat.ppm.sac.batch_size = 4;
  cfg.seed = seed;
  return cfg;
}

LoadPattern load(const SimConfig& cfg, double fraction) {
  return LoadPattern::constant(cfg.lc.max_load_krps * 1000.0 * fraction);
}

/// A sim with its tenant lanes capped at `lanes`.
std::unique_ptr<ColocationSim> make_sim(const SimConfig& cfg, std::size_t lanes,
                                        obs::RunContext* ctx = nullptr) {
  auto sim = std::make_unique<ColocationSim>(cfg, ctx);
  sim->set_tenant_lanes(lanes);
  return sim;
}

void expect_bitwise_equal(const SimResult& a, const SimResult& b) {
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    SCOPED_TRACE("interval " + std::to_string(i));
    const TimePoint& x = a.series[i];
    const TimePoint& y = b.series[i];
    EXPECT_EQ(x.t_sec, y.t_sec);
    EXPECT_EQ(x.offered_rps, y.offered_rps);
    EXPECT_EQ(x.lc_p99_ms, y.lc_p99_ms);
    EXPECT_EQ(x.lc_throughput_rps, y.lc_throughput_rps);
    EXPECT_EQ(x.lc_fmem_ratio, y.lc_fmem_ratio);
    EXPECT_EQ(x.lc_fmem_share, y.lc_fmem_share);
    EXPECT_EQ(x.be_fmem_share, y.be_fmem_share);
    EXPECT_EQ(x.be_throughput, y.be_throughput);
  }
  EXPECT_EQ(a.lc_p99_ms, b.lc_p99_ms);
  EXPECT_EQ(a.slo_violation_rate, b.slo_violation_rate);
  EXPECT_EQ(a.lc_completed, b.lc_completed);
  EXPECT_EQ(a.be_rate, b.be_rate);
  EXPECT_EQ(a.be_np, b.be_np);
  EXPECT_EQ(a.fairness, b.fairness);
  EXPECT_EQ(a.be_total_throughput, b.be_total_throughput);
  EXPECT_EQ(a.be_mean_np, b.be_mean_np);
  EXPECT_EQ(a.migration_bytes_per_sec, b.migration_bytes_per_sec);
}

/// The registry CSV without wall-time rows (obs::names::is_wall_time_metric).
std::string registry_csv(const ColocationSim& sim) {
  std::ostringstream dump;
  sim.metrics().write_csv(dump);
  std::istringstream in(dump.str());
  std::string out, line;
  while (std::getline(in, line))
    if (line.find("wall") == std::string::npos) out += line + "\n";
  return out;
}

void expect_same_sim(const ColocationSim& a, const ColocationSim& b) {
  expect_bitwise_equal(a.result(), b.result());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.snapshot().state, b.snapshot().state);
  EXPECT_EQ(registry_csv(a), registry_csv(b));
}

std::size_t lanes_expected(const ColocationSim& sim) {
  return std::min({kForceOn, host_lane_limit(), sim.be_count()});
}

struct Param {
  PolicyKind policy;
  int tiers;
};

class TenantLanesDifferential : public ::testing::TestWithParam<Param> {};

TEST_P(TenantLanesDifferential, LanesOnMatchLanesOffAcrossARestore) {
  if (host_lane_limit() == 0) GTEST_SKIP() << "the host allows no tenant lane";
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SimConfig cfg = config(GetParam().policy, GetParam().tiers, seed);
    const auto serial = make_sim(cfg, 0);
    const auto laned = make_sim(cfg, kForceOn);
    for (ColocationSim* sim : {serial.get(), laned.get()}) {
      sim->run(load(cfg, 0.5), milliseconds(1200), /*measure=*/false);
      sim->reset_stats();
      sim->run(load(cfg, 0.6), milliseconds(1130));  // ends mid-interval
    }
    EXPECT_EQ(serial->last_run_lanes(), 0u);
    EXPECT_EQ(laned->last_run_lanes(), lanes_expected(*laned));
    expect_same_sim(*serial, *laned);

    // Restored mid-interval, the run continues under lanes.
    const auto restored = ColocationSim::restore(laned->snapshot());
    restored->set_tenant_lanes(kForceOn);
    for (ColocationSim* sim : {serial.get(), restored.get()})
      sim->run(load(cfg, 0.8), milliseconds(1370));
    EXPECT_EQ(restored->last_run_lanes(), lanes_expected(*restored));
    expect_same_sim(*serial, *restored);
  }
}

INSTANTIATE_TEST_SUITE_P(Mtat, TenantLanesDifferential,
                         ::testing::Values(Param{PolicyKind::kMtatFull, 2},
                                           Param{PolicyKind::kMtatFull, 3},
                                           Param{PolicyKind::kMtatLcOnly, 2},
                                           Param{PolicyKind::kMtatLcOnly, 3}),
                         [](const auto& info) {
                           return std::string(policy_name(info.param.policy)) + "_" +
                                  std::to_string(info.param.tiers) + "tier";
                         });

TEST(TenantLanes, TicksWithoutSamplesMatchInline) {
  if (host_lane_limit() == 0) GTEST_SKIP() << "the host allows no tenant lane";
  SimConfig cfg = config(PolicyKind::kMtatFull, 2, 21);
  // Tenants 0 and 3 sample so rarely that most of their ticks emit
  // nothing. Tenant 3 has the highest workload id, so until it samples the
  // sampler holds no counter row for it, and lanes must not add one.
  cfg.be[0].sample_period = std::uint64_t{1} << 26;
  cfg.be[3].sample_period = std::uint64_t{1} << 30;
  const auto serial = make_sim(cfg, 0);
  const auto laned = make_sim(cfg, kForceOn);
  for (ColocationSim* sim : {serial.get(), laned.get()}) sim->run(load(cfg, 0.3), milliseconds(30));
  // A state saved before the quiet tenants first sampled.
  expect_same_sim(*serial, *laned);
  for (ColocationSim* sim : {serial.get(), laned.get()}) sim->run(load(cfg, 0.6), seconds(2));
  EXPECT_EQ(laned->last_run_lanes(), lanes_expected(*laned));
  expect_same_sim(*serial, *laned);
}

TEST(TenantLanes, RunInlineUnlessEverySampleConsumerIsItsWorkloads) {
  if (host_lane_limit() == 0) GTEST_SKIP() << "the host allows no tenant lane";
  // MEMTIS keeps one unfiltered histogram; TPP, DAMON and MEMTIS-HP take
  // per-sample callbacks.
  for (const PolicyKind policy :
       {PolicyKind::kMemtis, PolicyKind::kTpp, PolicyKind::kDamon, PolicyKind::kMemtisHp}) {
    SCOPED_TRACE(policy_name(policy));
    const SimConfig cfg = config(policy, 2, 31);
    const auto sim = make_sim(cfg, kForceOn);
    sim->run(load(cfg, 0.5), milliseconds(100));
    EXPECT_EQ(sim->last_run_lanes(), 0u);
  }
  // A fault injector draws one stream across workloads.
  {
    const SimConfig cfg = config(PolicyKind::kMtatFull, 2, 32);
    obs::RunContext ctx;
    ctx.install_faults(faults::FaultPlan::storm(0.5));
    const auto sim = make_sim(cfg, kForceOn, &ctx);
    sim->run(load(cfg, 0.5), milliseconds(100));
    EXPECT_EQ(sim->last_run_lanes(), 0u);
  }
  // A job on a worker of a pool already has a CPU of its own.
  std::vector<std::size_t> lanes(2, 99);
  std::vector<experiments::RunSpec> specs;
  for (std::size_t i = 0; i < lanes.size(); ++i)
    specs.push_back({"lanes" + std::to_string(i), [&lanes, i](obs::RunContext& ctx) {
                       const SimConfig cfg = config(PolicyKind::kMtatFull, 2, 33 + i);
                       const auto sim = make_sim(cfg, kForceOn, &ctx);
                       sim->run(load(cfg, 0.5), milliseconds(100));
                       lanes[i] = sim->last_run_lanes();
                     }});
  experiments::ParallelRunner(2).run_all(specs);
  EXPECT_EQ(lanes, std::vector<std::size_t>(2, 0));
  // The same sim alone qualifies.
  const SimConfig cfg = config(PolicyKind::kMtatFull, 2, 33);
  const auto sim = make_sim(cfg, kForceOn);
  sim->run(load(cfg, 0.5), milliseconds(100));
  EXPECT_EQ(sim->last_run_lanes(), lanes_expected(*sim));
}

/// Threads of this process, from the kernel's task list.
std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e : std::filesystem::directory_iterator("/proc/self/task"))
    ++n;
  return n;
}

TEST(TenantLanes, NeverMoreThanTheHostAllowsAndNoneOutliveRun) {
  if (host_lane_limit() == 0) GTEST_SKIP() << "the host allows no tenant lane";
  const SimConfig cfg = config(PolicyKind::kMtatFull, 2, 41);
  const auto sim = make_sim(cfg, 1000);
  // The process's first threads can start a runtime helper that stays (a
  // sanitizer's background thread), so count after one laned run.
  sim->run(load(cfg, 0.5), milliseconds(30));
  const std::size_t before = thread_count();
  sim->run(load(cfg, 0.5), milliseconds(300));
  EXPECT_EQ(thread_count(), before);
  EXPECT_GT(sim->last_run_lanes(), 0u);
  EXPECT_EQ(sim->last_run_lanes(), std::min(host_lane_limit(), sim->be_count()));
  EXPECT_LE(sim->last_run_lanes(), usable_cpus() - 1);
  // Lanes time their phase; the counters are wall time, outside the state.
  EXPECT_GT(sim->metrics().find_counter(obs::names::kSimTenantPhaseWallUs)->value(), 0.0);
  EXPECT_NE(sim->metrics().find_counter(obs::names::kSimLaneJoinWallUs), nullptr);
  sim->set_tenant_lanes(0);
  sim->run(load(cfg, 0.5), milliseconds(30));
  EXPECT_EQ(sim->last_run_lanes(), 0u);
}

TEST(TenantLanesRegion, EveryChunkRunsExactlyOnce) {
  for (const std::size_t helpers : {1, 2, 3}) {
    TenantLanes team({}, helpers);
    std::vector<int> hits;
    for (std::size_t round = 0; round < 600; ++round) {
      const std::size_t chunks = round % 41;
      hits.assign(chunks, 0);
      run_chunks(&team, chunks, [&hits](std::size_t c) { ++hits[c]; });
      ASSERT_EQ(std::count(hits.begin(), hits.end(), 1), static_cast<long>(chunks))
          << helpers << " helper(s), region of " << chunks;
    }
  }
}

TEST(TenantLanesRegion, LanesFinishTheRegionWhileTheCallerIsHeld) {
  // The caller blocks in the first chunk it claims until the lanes have run
  // every other one, so lanes never wait for the caller between chunks.
  TenantLanes team({}, 2);
  const std::thread::id caller = std::this_thread::get_id();
  constexpr int kChunks = 16;
  std::atomic<int> by_lanes{0}, by_caller{0};
  run_chunks(&team, kChunks, [&](std::size_t) {
    if (std::this_thread::get_id() != caller) {
      by_lanes.fetch_add(1);
      return;
    }
    by_caller.fetch_add(1);
    while (by_lanes.load() < kChunks - 1) std::this_thread::yield();
  });
  EXPECT_EQ(by_lanes.load() + by_caller.load(), kChunks);
  EXPECT_LE(by_caller.load(), 1);
}

TEST(TenantLanesRegion, ACallerNeverWaitsForALaneBeyondItsChunk) {
  // One lane stalls in the first chunk it claims until the caller has run
  // every other one: a stolen lane holds a region by that chunk alone.
  TenantLanes team({}, 1);
  const std::thread::id caller = std::this_thread::get_id();
  constexpr int kChunks = 16;
  std::atomic<int> by_lane{0}, by_caller{0};
  run_chunks(&team, kChunks, [&](std::size_t) {
    if (std::this_thread::get_id() == caller) {
      by_caller.fetch_add(1);
      return;
    }
    by_lane.fetch_add(1);
    while (by_caller.load() < kChunks - 1) std::this_thread::yield();
  });
  EXPECT_EQ(by_lane.load() + by_caller.load(), kChunks);
  EXPECT_LE(by_lane.load(), 1);
}

TEST(TenantLanesRegion, SacTrainedOnLanesMatchesInline) {
  // Short intervals and a batch of 24 (three row chunks per pass): most
  // intervals train SAC, in regions on the lanes between ticks.
  SimConfig cfg = config(PolicyKind::kMtatFull, 2, 17);
  cfg.interval = milliseconds(50);
  cfg.mtat.ppm.sac.batch_size = 24;
  auto on = make_sim(cfg, kForceOn);
  auto off = make_sim(cfg, 0);
  on->run(load(cfg, 0.6), seconds(3));
  off->run(load(cfg, 0.6), seconds(3));
  EXPECT_EQ(on->last_run_lanes(), lanes_expected(*on));
  EXPECT_GT(on->metrics().counter(obs::names::kRlUpdates).value(), 40.0);
  expect_same_sim(*on, *off);
}

}  // namespace
}  // namespace mtat

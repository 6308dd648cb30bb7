// Compact-state checkpoints (DESIGN.md §17): restore() loads a saved state
// instead of re-simulating the journal, so it must be indistinguishable from
// replay() and from the sim that never stopped. Every policy, on two and
// three tiers with the bandwidth model on, is snapshotted mid-interval after
// an uneven 2.35 s history and continued for 60 ms and then 3 s more on all
// three paths; results, fingerprints, registries (minus wall-time lines) and
// the re-saved state bytes must agree. A damaged state must be rejected, a checkpoint must
// survive crossing threads, and a settled fleet node must stay small.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "rl/sac.h"
#include "sim/colocation_sim.h"
#include "sim/experiments.h"
#include "workloads/be/be_suite.h"

namespace mtat {
namespace {

constexpr PolicyKind kAllPolicies[] = {
    PolicyKind::kMtatFull, PolicyKind::kMtatLcOnly, PolicyKind::kMemtis,
    PolicyKind::kTpp,      PolicyKind::kFmemAll,    PolicyKind::kSmemAll,
    PolicyKind::kVtmm,     PolicyKind::kDamon,      PolicyKind::kMemtisHp};

SimConfig config(PolicyKind policy, int tiers) {
  SimConfig cfg;
  cfg.fmem = 32_MiB;
  cfg.smem = 512_MiB;
  if (tiers == 3)
    cfg.tiers = {{"dram", bytes_to_pages(32_MiB), 73, cfg.migration_bandwidth},
                 {"cxl", bytes_to_pages(128_MiB), 202, cfg.migration_bandwidth},
                 {"nvm", bytes_to_pages(512_MiB), 450}};
  cfg.lc = redis_config();
  cfg.lc.n_records = 30'000;
  cfg.be = be_suite(BEScale::kTest, 36_MiB, 4, 2);
  cfg.policy = policy;
  cfg.bandwidth.enabled = true;
  // Short intervals, so aging, PP-M decisions and SAC updates all happen
  // before the snapshot.
  cfg.interval = milliseconds(250);
  cfg.mtat.ppm.sac.min_buffer_for_update = 2;
  cfg.mtat.ppm.sac.batch_size = 4;
  cfg.seed = 977;
  return cfg;
}

LoadPattern load(const SimConfig& cfg, double fraction) {
  return LoadPattern::constant(cfg.lc.max_load_krps * 1000.0 * fraction);
}

/// Ends mid-interval: 1.2 s unmeasured, a reset, then 1.15 s measured.
void uneven_history(ColocationSim& sim) {
  sim.run(load(sim.config(), 0.5), milliseconds(1200), /*measure=*/false);
  sim.reset_stats();
  sim.run(load(sim.config(), 0.6), milliseconds(1150));
}

/// 60 ms more, then the saved state.
std::string step(ColocationSim& sim) {
  sim.run(load(sim.config(), 0.7), milliseconds(60));
  return sim.snapshot().state;
}

void continue_run(ColocationSim& sim) { sim.run(load(sim.config(), 0.7), seconds(3)); }

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
  // policy_wall_us_per_interval is host wall time, exempt by design.
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

struct Param {
  PolicyKind policy;
  int tiers;
};

class CheckpointState : public ::testing::TestWithParam<Param> {};

TEST_P(CheckpointState, RestoreEqualsReplayEqualsUninterrupted) {
  const SimConfig cfg = config(GetParam().policy, GetParam().tiers);
  ColocationSim uninterrupted(cfg);
  uneven_history(uninterrupted);
  const SimCheckpoint cp = uninterrupted.snapshot();
  ASSERT_FALSE(cp.state.empty());

  const std::unique_ptr<ColocationSim> restored = ColocationSim::restore(cp);
  const std::unique_ptr<ColocationSim> replayed = ColocationSim::replay(cp);
  // Before continuing: the same placement and telemetry, and re-saving
  // either rebuilt sim gives back the checkpoint's bytes.
  EXPECT_EQ(uninterrupted.fingerprint(), restored->fingerprint());
  EXPECT_EQ(uninterrupted.fingerprint(), replayed->fingerprint());
  EXPECT_EQ(cp.state, restored->snapshot().state);
  EXPECT_EQ(cp.state, replayed->snapshot().state);
  EXPECT_EQ(restored->snapshot().ops.size(), cp.ops.size());

  // A few ticks in, still inside the interval: per-interval state
  // (sample counters, seen-page bits) has not been reset yet.
  const std::string early = step(uninterrupted);
  EXPECT_EQ(early, step(*restored));
  EXPECT_EQ(early, step(*replayed));

  continue_run(uninterrupted);
  continue_run(*restored);
  continue_run(*replayed);
  for (ColocationSim* sim : {restored.get(), replayed.get()}) {
    SCOPED_TRACE(sim == restored.get() ? "restored" : "replayed");
    expect_bitwise_equal(uninterrupted.result(), sim->result());
    EXPECT_EQ(uninterrupted.fingerprint(), sim->fingerprint());
    EXPECT_EQ(registry_csv(uninterrupted), registry_csv(*sim));
    EXPECT_EQ(uninterrupted.snapshot().state, sim->snapshot().state);
  }
}

std::vector<Param> all_params() {
  std::vector<Param> out;
  for (const PolicyKind k : kAllPolicies)
    for (const int tiers : {2, 3}) out.push_back({k, tiers});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Policies, CheckpointState, ::testing::ValuesIn(all_params()),
                         [](const auto& info) {
                           return std::string(policy_name(info.param.policy)) + "_" +
                                  std::to_string(info.param.tiers) + "tier";
                         });

TEST(CheckpointStateCodec, DamagedStatesAreRejected) {
  ColocationSim sim(config(PolicyKind::kMemtis, 2));
  uneven_history(sim);
  const SimCheckpoint cp = sim.snapshot();
  const auto rejects = [&cp](std::string state) {
    SimCheckpoint bad = cp;
    bad.state = std::move(state);
    EXPECT_THROW(ColocationSim::restore(bad), std::invalid_argument);
  };
  rejects("");
  rejects(cp.state.substr(0, cp.state.size() - 1));  // truncated
  rejects(cp.state.substr(0, cp.state.size() / 2));
  rejects(cp.state + '\0');  // extended
  std::string garbled = cp.state;
  garbled[garbled.size() / 2] = static_cast<char>(garbled[garbled.size() / 2] ^ 0x10);
  rejects(garbled);
  // A state saved by one sim does not load into another geometry.
  SimCheckpoint other = cp;
  other.config = config(PolicyKind::kMemtis, 3);
  EXPECT_THROW(ColocationSim::restore(other), std::invalid_argument);
  EXPECT_NO_THROW(ColocationSim::restore(cp));
}

TEST(CheckpointStateCodec, SharedAgentIsNotTheSimsState) {
  SimConfig cfg = config(PolicyKind::kMtatFull, 2);
  SacAgent agent(cfg.mtat.ppm.sac);
  cfg.shared_agent = &agent;
  ColocationSim sim(cfg);
  sim.run(load(cfg, 0.5), milliseconds(500));
  EXPECT_THROW(sim.snapshot(), std::logic_error);
}

// A checkpoint is plain data: taken on a worker of one pool, restored on a
// worker of another, it continues exactly like the sim that never stopped.
TEST(CheckpointStateCodec, RestoresOnAnotherWorker) {
  const SimConfig cfg = config(PolicyKind::kMtatFull, 2);
  ColocationSim reference(cfg);
  uneven_history(reference);
  continue_run(reference);

  SimCheckpoint cp;
  std::thread::id saver, loader;
  SimResult result;
  // Two specs, so each pool spawns its workers instead of running inline.
  const experiments::RunSpec idle{"idle", [](obs::RunContext&) {}};
  experiments::ParallelRunner(2).run_all({{"save",
                                           [&](obs::RunContext& ctx) {
                                             ColocationSim sim(cfg, &ctx);
                                             uneven_history(sim);
                                             cp = sim.snapshot();
                                             saver = std::this_thread::get_id();
                                           }},
                                          idle});
  experiments::ParallelRunner(2).run_all({{"load",
                                           [&](obs::RunContext& ctx) {
                                             const auto sim = ColocationSim::restore(cp, &ctx);
                                             continue_run(*sim);
                                             result = sim->result();
                                             loader = std::this_thread::get_id();
                                           }},
                                          idle});
  EXPECT_NE(saver, std::this_thread::get_id());
  EXPECT_NE(loader, std::this_thread::get_id());
  expect_bitwise_equal(reference.result(), result);
}

// The fleet_storm node (benchmark/workloads.cc's fleet geometry: 32 MiB /
// 512 MiB, MEMTIS, redis sized to 1.05x FMem plus two BE tenants), settled
// for 1 s and then run for ten 1 s windows, checkpoints to at most 128 KiB.
TEST(CheckpointStateCodec, SettledFleetNodeIsSmall) {
  SimConfig cfg;
  cfg.fmem = 32_MiB;
  cfg.smem = 512_MiB;
  cfg.lc = redis_config();
  cfg.lc.n_records = static_cast<std::uint64_t>(1.05 * static_cast<double>(cfg.fmem) /
                                                static_cast<double>(cfg.lc.record_size));
  cfg.be = be_suite(BEScale::kTest, 36_MiB, 4, 2);
  cfg.policy = PolicyKind::kMemtis;
  cfg.bandwidth.enabled = true;
  cfg.bandwidth.fmem_accesses_per_sec = 300e6;
  cfg.bandwidth.smem_accesses_per_sec = 50e6;
  cfg.seed = 5;
  ColocationSim sim(cfg);
  const LoadPattern pat = load(cfg, 0.48);
  sim.run(pat, seconds(1), /*measure=*/false);
  for (int w = 0; w < 10; ++w) {
    sim.reset_stats();
    sim.run(pat, seconds(1));
  }
  const SimCheckpoint cp = sim.snapshot();
  EXPECT_LE(cp.state.size(), 128u * 1024u);
  EXPECT_EQ(ColocationSim::restore(cp)->fingerprint(), sim.fingerprint());
}

}  // namespace
}  // namespace mtat

// N-tier topology tests for the tier-vector memory API: allocation spill
// order beyond two tiers, cascaded (link-by-link) demotion, independent
// per-link migration budgets, multi-link exchange rollback under an
// MTAT_FAULTS=storm-style plan, per-tier bandwidth contention gauges, and
// the MTAT_TOPOLOGY spec parser's rejection of malformed inputs. The
// two-tier behavior these generalize is covered by mem_test.cc and
// page_hotness_equivalence_test.cc; everything here needs at least a third
// tier to be observable.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "faults/fault_plan.h"
#include "mem/migration_engine.h"
#include "mem/tiered_memory.h"
#include "mem/topology.h"
#include "obs/names.h"
#include "obs/run_context.h"
#include "sim/colocation_sim.h"
#include "workloads/be/be_suite.h"

namespace mtat {
namespace {

/// DRAM/CXL/NVM with tiny capacities (pages: 8/16/32) and distinct per-link
/// bandwidths so link accounting is distinguishable.
TieredMemory::Config three_tier_config() {
  TieredMemory::Config cfg;
  cfg.tiers = {{"dram", 8, 73, 4096.0 * kPageSize},
               {"cxl", 16, 202, 4096.0 * kPageSize},
               {"nvm", 32, 450, 4096.0 * kPageSize}};
  return cfg;
}

double counter_value(const obs::RunContext& ctx, const char* name) {
  const obs::Counter* c = ctx.metrics().find_counter(name);
  return c != nullptr ? c->value() : 0.0;
}

// ------------------------------------------------------------- allocation --

TEST(NTierAlloc, FastestFirstSpillsTierByTier) {
  TieredMemory mem(three_tier_config());
  // 8 + 16 + 4: fills dram, fills cxl, spills 4 into nvm.
  const auto pages = mem.allocate(0, 28, kFastestFirst);
  ASSERT_EQ(pages.size(), 28u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(mem.tier_of(pages[i]), 0);
  for (std::size_t i = 8; i < 24; ++i) EXPECT_EQ(mem.tier_of(pages[i]), 1);
  for (std::size_t i = 24; i < 28; ++i) EXPECT_EQ(mem.tier_of(pages[i]), 2);
  EXPECT_EQ(mem.free_pages(0), 0u);
  EXPECT_EQ(mem.free_pages(1), 0u);
  EXPECT_EQ(mem.free_pages(2), 28u);
}

TEST(NTierAlloc, FourTierSpillReachesTheTail) {
  TieredMemory::Config cfg;
  cfg.tiers = {{"dram", 4, 73}, {"cxl", 4, 202}, {"nvm", 4, 450}, {"remote", 64, 900}};
  TieredMemory mem(cfg);
  const auto pages = mem.allocate(0, 14, kFastestFirst);
  EXPECT_EQ(mem.tier_of(pages[0]), 0);
  EXPECT_EQ(mem.tier_of(pages[5]), 1);
  EXPECT_EQ(mem.tier_of(pages[9]), 2);
  EXPECT_EQ(mem.tier_of(pages[13]), 3);
  EXPECT_EQ(mem.slowest_tier(), 3);
  EXPECT_EQ(mem.link_count(), 3u);
}

TEST(NTierAlloc, TierOnlyPinsToAMiddleTier) {
  TieredMemory mem(three_tier_config());
  const auto pages = mem.allocate(0, 5, kTierOnly(1));
  for (const PageId p : pages) EXPECT_EQ(mem.tier_of(p), 1);
  EXPECT_THROW(mem.allocate(1, 12, kTierOnly(1)), std::runtime_error);  // 11 left in cxl
}

// -------------------------------------------------------------- migration --

TEST(NTierMigration, DemotionCascadesLinkByLink) {
  TieredMemory mem(three_tier_config());
  const PageId p = mem.allocate(0, 1, kTierOnly(0))[0];
  MigrationEngine::Config ec;
  ec.bandwidth_bytes_per_sec = 100.0 * static_cast<double>(kPageSize);
  MigrationEngine engine(mem, ec);
  engine.begin_interval(seconds(1));

  ASSERT_TRUE(engine.demote(p));  // dram -> cxl, spends link 0
  EXPECT_EQ(mem.tier_of(p), 1);
  EXPECT_EQ(engine.link_budget_pages(0), 99u);
  EXPECT_EQ(engine.link_budget_pages(1), 100u);

  ASSERT_TRUE(engine.demote(p));  // cxl -> nvm, spends link 1
  EXPECT_EQ(mem.tier_of(p), 2);
  EXPECT_EQ(engine.link_budget_pages(0), 99u);
  EXPECT_EQ(engine.link_budget_pages(1), 99u);

  EXPECT_FALSE(engine.demote(p));  // already in the slowest tier
  EXPECT_TRUE(engine.promote_to_fastest(p));
  EXPECT_EQ(mem.tier_of(p), 0);
  EXPECT_EQ(engine.link_budget_pages(0), 98u);
  EXPECT_EQ(engine.link_budget_pages(1), 98u);
}

TEST(NTierMigration, PerLinkBudgetsRefillFromPerLinkBandwidth) {
  TieredMemory mem(three_tier_config());
  MigrationEngine::Config ec;
  ec.bandwidth_bytes_per_sec = 100.0 * static_cast<double>(kPageSize);
  ec.link_bandwidth_bytes_per_sec = {100.0 * static_cast<double>(kPageSize),
                                     25.0 * static_cast<double>(kPageSize)};
  MigrationEngine engine(mem, ec);
  EXPECT_EQ(engine.link_count(), 2u);
  engine.begin_interval(seconds(1));
  EXPECT_EQ(engine.link_budget_pages(0), 100u);
  EXPECT_EQ(engine.link_budget_pages(1), 25u);
  // budget_pages() is link 0's budget — the two-tier API surface unchanged.
  EXPECT_EQ(engine.budget_pages(), 100u);
}

TEST(NTierMigration, ExhaustedSlowLinkBlocksOnlyThatLink) {
  TieredMemory mem(three_tier_config());
  const auto cxl = mem.allocate(0, 4, kTierOnly(1));
  MigrationEngine::Config ec;
  ec.bandwidth_bytes_per_sec = 100.0 * static_cast<double>(kPageSize);
  ec.link_bandwidth_bytes_per_sec = {100.0 * static_cast<double>(kPageSize),
                                     2.0 * static_cast<double>(kPageSize)};
  MigrationEngine engine(mem, ec);
  engine.begin_interval(seconds(1));
  ASSERT_TRUE(engine.demote(cxl[0]));
  ASSERT_TRUE(engine.demote(cxl[1]));
  EXPECT_FALSE(engine.demote(cxl[2]));  // link 1 dry
  EXPECT_TRUE(engine.promote(cxl[2]));  // link 0 still has budget
  EXPECT_EQ(mem.tier_of(cxl[2]), 0);
}

TEST(NTierMigration, MultiLinkExchangeSpendsEveryLinkItCrosses) {
  TieredMemory mem(three_tier_config());
  const PageId fast = mem.allocate(0, 1, kTierOnly(0))[0];
  const PageId slow = mem.allocate(1, 1, kTierOnly(2))[0];
  obs::RunContext ctx;
  MigrationEngine::Config ec;
  ec.bandwidth_bytes_per_sec = 100.0 * static_cast<double>(kPageSize);
  MigrationEngine engine(mem, ec);
  engine.set_run_context(&ctx);
  engine.begin_interval(seconds(1));
  ASSERT_TRUE(engine.exchange(slow, fast));  // two links apart
  EXPECT_EQ(mem.tier_of(slow), 0);
  EXPECT_EQ(mem.tier_of(fast), 2);
  EXPECT_EQ(engine.link_budget_pages(0), 98u);
  EXPECT_EQ(engine.link_budget_pages(1), 98u);
  EXPECT_DOUBLE_EQ(counter_value(ctx, obs::names::kMigrationLink0PagesMoved), 2.0);
  EXPECT_DOUBLE_EQ(counter_value(ctx, obs::names::kMigrationLink1PagesMoved), 2.0);
}

TEST(NTierMigration, NonAdjacentExchangeRollsBackUnderStorm) {
  TieredMemory mem(three_tier_config());
  const PageId fast = mem.allocate(0, 1, kTierOnly(0))[0];
  const PageId slow = mem.allocate(1, 1, kTierOnly(2))[0];
  obs::RunContext ctx;
  // The MTAT_FAULTS=storm preset at full intensity: its migration-failure
  // burst window ([10 s, 15 s) each 30 s cycle) aborts every attempt.
  ctx.install_faults(faults::FaultPlan::storm(1.0));
  ctx.faults()->set_now(seconds(12));
  MigrationEngine::Config ec;
  ec.bandwidth_bytes_per_sec = 100.0 * static_cast<double>(kPageSize);
  MigrationEngine engine(mem, ec);
  engine.set_run_context(&ctx);
  engine.begin_interval(seconds(1));

  EXPECT_FALSE(engine.exchange(slow, fast));
  // Rolled back: nothing moved, but the half-copy burned both links' budget.
  EXPECT_EQ(mem.tier_of(slow), 2);
  EXPECT_EQ(mem.tier_of(fast), 0);
  EXPECT_EQ(engine.link_budget_pages(0), 98u);
  EXPECT_EQ(engine.link_budget_pages(1), 98u);
  EXPECT_EQ(engine.total_pages_moved(), 0u);
  EXPECT_DOUBLE_EQ(counter_value(ctx, obs::names::kFaultMigrationRollbacks), 1.0);
  EXPECT_DOUBLE_EQ(counter_value(ctx, obs::names::kFaultMigrationFailures), 1.0);
}

// ------------------------------------------------------ bandwidth contention --

TEST(NTierBandwidth, EveryTierExportsItsContentionFactor) {
  // The contention model runs per tier on any topology; tiers beyond the
  // classic pair register bw.tier<k>_factor gauges, two-tier sims do not.
  SimConfig cfg;
  cfg.tiers = {{"dram", bytes_to_pages(8_MiB), 73},
               {"cxl", bytes_to_pages(24_MiB), 202},
               {"nvm", bytes_to_pages(512_MiB), 450}};
  cfg.lc = redis_config();
  cfg.lc.n_records = 30'000;
  cfg.be = be_suite(BEScale::kTest, 36_MiB, 4, 2);
  cfg.policy = PolicyKind::kMemtis;
  cfg.bandwidth.enabled = true;
  cfg.bandwidth.smem_accesses_per_sec = 5e6;  // BE-heavy NVM saturates
  ColocationSim sim(cfg);
  sim.run(LoadPattern::constant(500.0), seconds(3));
  const char* const names[] = {obs::names::kBwFmemFactor, obs::names::kBwSmemFactor,
                               obs::names::kBwTier2Factor};
  for (TierId t = 0; t < 3; ++t) {
    const obs::Gauge* g = sim.metrics().find_gauge(names[t]);
    ASSERT_NE(g, nullptr) << names[t];
    EXPECT_GE(g->value(), 1.0) << names[t];
    EXPECT_LE(g->value(), cfg.bandwidth.max_factor) << names[t];
    EXPECT_EQ(g->value(), sim.mem().contention_factor(t)) << names[t];
  }
  EXPECT_GT(sim.metrics().find_gauge(obs::names::kBwTier2Factor)->value(), 1.0);
  EXPECT_EQ(sim.metrics().find_gauge(obs::names::kBwTier3Factor), nullptr);

  cfg.tiers = {{"dram", bytes_to_pages(8_MiB), 73}, {"cxl", bytes_to_pages(512_MiB), 202}};
  ColocationSim two_tier(cfg);
  EXPECT_NE(two_tier.metrics().find_gauge(obs::names::kBwSmemFactor), nullptr);
  EXPECT_EQ(two_tier.metrics().find_gauge(obs::names::kBwTier2Factor), nullptr);
}

// --------------------------------------------------------- topology parser --

TEST(TopologyParse, ThreeTierSpecRoundTrips) {
  std::string error;
  const auto tiers = parse_topology("dram:8G:73;cxl:64G:202;nvm:256G:450", &error);
  ASSERT_TRUE(tiers.has_value()) << error;
  ASSERT_EQ(tiers->size(), 3u);
  EXPECT_EQ((*tiers)[0].name, "dram");
  EXPECT_EQ((*tiers)[0].capacity_pages, bytes_to_pages(8ull << 30));
  EXPECT_EQ((*tiers)[0].latency, 73);
  EXPECT_EQ((*tiers)[2].name, "nvm");
  EXPECT_EQ((*tiers)[2].latency, 450);
  // Default link bandwidth when the optional fourth field is omitted.
  EXPECT_DOUBLE_EQ((*tiers)[0].link_bandwidth_bytes_per_sec, 4.0 * 1024 * 1024 * 1024);
  EXPECT_EQ(topology_to_string(*tiers), "dram:8192M:73;cxl:65536M:202;nvm:262144M:450");
}

TEST(TopologyParse, ExplicitLinkBandwidthIsParsed) {
  const auto tiers = parse_topology("dram:1G:73:8G;cxl:4G:202:512M");
  ASSERT_TRUE(tiers.has_value());
  EXPECT_DOUBLE_EQ((*tiers)[0].link_bandwidth_bytes_per_sec,
                   static_cast<double>(8ull << 30));
  EXPECT_DOUBLE_EQ((*tiers)[1].link_bandwidth_bytes_per_sec,
                   static_cast<double>(512ull << 20));
}

TEST(TopologyParse, MalformedSpecsAreRejectedWithSpecificErrors) {
  const struct {
    const char* spec;
    const char* expect_in_error;
  } cases[] = {
      {"dram:1G:73", "at least two tiers"},
      {"", "empty tier entry"},
      {"dram:1G:73;;nvm:4G:450", "empty tier entry"},
      {"dram:1G;nvm:4G:450", "expected name:capacity:latency"},
      {"dram:1G:73:4G:extra;nvm:4G:450", "expected name:capacity:latency"},
      {":1G:73;nvm:4G:450", "empty name"},
      {"dram:zero:73;nvm:4G:450", "bad capacity"},
      {"dram:0:73;nvm:4G:450", "bad capacity"},
      {"dram: -1:73;nvm:4G:450", "bad capacity"},
      {"dram:1G:fast;nvm:4G:450", "bad latency"},
      {"dram:1G:0;nvm:4G:450", "bad latency"},
      {"dram:1G:73:none;nvm:4G:450", "bad link bandwidth"},
      {"dram:1G:73:0;nvm:4G:450", "bad link bandwidth"},
      {"dram:1G:202;nvm:4G:73", "fastest first"},
  };
  for (const auto& c : cases) {
    std::string error;
    EXPECT_FALSE(parse_topology(c.spec, &error).has_value()) << c.spec;
    EXPECT_NE(error.find(c.expect_in_error), std::string::npos)
        << "spec \"" << c.spec << "\" gave error \"" << error << "\"";
  }
}

TEST(TopologyParse, TierCountIsBoundedByKMaxTiers) {
  std::string spec;
  for (int t = 0; t < kMaxTiers + 1; ++t) {
    if (t > 0) spec += ';';
    spec += "t";
    spec += std::to_string(t);
    spec += ":1G:";
    spec += std::to_string(73 + t);
  }
  std::string error;
  EXPECT_FALSE(parse_topology(spec, &error).has_value());
  EXPECT_NE(error.find("kMaxTiers"), std::string::npos) << error;
  // One fewer parses fine.
  const std::size_t last = spec.rfind(';');
  EXPECT_TRUE(parse_topology(spec.substr(0, last)).has_value());
}

}  // namespace
}  // namespace mtat

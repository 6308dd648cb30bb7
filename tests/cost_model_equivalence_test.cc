// Differential test for the N-tier cost model.
//
// The BE rate, the bandwidth model's demand/inflation step and PP-M's
// contention-aware SA objective used to have separate two-tier code paths.
// The functions below are a direct transcription of that two-tier
// arithmetic: BEWorkload::rate_for_weight and rate_under, the two-tier
// branch of the per-tick bandwidth model, and the two-tier joint objective.
// They are the executable spec of the old operation order.
//
// The one remainder-form implementation must reproduce them bit for bit on
// two tiers, over randomized access weights, tier latencies, contention
// factors, bandwidth parameters and BE allocations. The last test needs a
// third tier: the objective must see NVM, which the two-tier objective could
// not.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "sim/colocation_sim.h"
#include "workloads/be/be_suite.h"

namespace mtat {
namespace {

double ref_rate_under(const BEConfig& c, double fmem_weight, double lat_f, double lat_s) {
  const double expected_lat = fmem_weight * lat_f + (1.0 - fmem_weight) * lat_s;
  const double ns_per_iter =
      c.cpu_ns_per_iter + c.profile.accesses_per_iteration * expected_lat / c.mlp;
  return static_cast<double>(c.cores) * 1e9 / ns_per_iter;
}

/// rate_for_weight: the two-tier closed form over the live tier latencies.
double ref_rate_for_weight(BEWorkload& be, const TieredMemory& mem, double fmem_weight) {
  return ref_rate_under(be.config(), fmem_weight, static_cast<double>(mem.latency(0)),
                        static_cast<double>(mem.latency(1)));
}

double ref_perf_full(BEWorkload& be, const TieredMemory& mem) {
  return ref_rate_for_weight(be, mem, be.hit_fraction_at_pages(be.space().num_pages()));
}

struct RefTenant {
  double acc = 0;          // accesses/s
  double fmem_weight = 0;  // share of them served by FMem
};

/// The two-tier branch of the per-tick bandwidth model (damped).
void ref_tick_step(const BandwidthModel& bw, const std::vector<RefTenant>& be, double lc_acc,
                   double lc_ratio, double factor[2]) {
  double demand[2] = {0.0, 0.0};
  for (const RefTenant& t : be) {
    demand[0] += t.acc * t.fmem_weight;
    demand[1] += t.acc * (1.0 - t.fmem_weight);
  }
  demand[0] += lc_acc * lc_ratio;
  demand[1] += lc_acc * (1.0 - lc_ratio);
  const double cap[2] = {bw.fmem_accesses_per_sec, bw.smem_accesses_per_sec};
  for (int t = 0; t < 2; ++t) {
    const double target = bandwidth_factor(bw, demand[t] / cap[t]);
    factor[t] = (1.0 - bw.damping) * factor[t] + bw.damping * target;
  }
}

/// The two-tier joint SA objective.
double ref_joint_objective(ColocationSim& sim, const std::vector<std::uint64_t>& alloc) {
  const BandwidthModel& bw = sim.config().bandwidth;
  const double base_f = static_cast<double>(sim.mem().base_latency(0));
  const double base_s = static_cast<double>(sim.mem().base_latency(1));
  double ff = 1.0, fs = 1.0;
  std::vector<double> hit(sim.be_count());
  for (std::size_t i = 0; i < sim.be_count(); ++i)
    hit[i] = sim.be(i).hit_fraction_at_pages(i < alloc.size() ? alloc[i] : 0);
  for (int it = 0; it < 4; ++it) {
    double df = 0.0, ds = 0.0;
    for (std::size_t i = 0; i < sim.be_count(); ++i) {
      const double acc = ref_rate_under(sim.be(i).config(), hit[i], base_f * ff, base_s * fs) *
                         sim.be(i).config().profile.accesses_per_iteration;
      df += acc * hit[i];
      ds += acc * (1.0 - hit[i]);
    }
    ff = bandwidth_factor(bw, df / bw.fmem_accesses_per_sec);
    fs = bandwidth_factor(bw, ds / bw.smem_accesses_per_sec);
  }
  double min_np = 1.0, sum_np = 0.0;
  for (std::size_t i = 0; i < sim.be_count(); ++i) {
    const double np = ref_rate_under(sim.be(i).config(), hit[i], base_f * ff, base_s * fs) /
                      ref_perf_full(sim.be(i), sim.mem());
    min_np = std::min(min_np, np);
    sum_np += np;
  }
  return min_np + 1e-6 * sum_np;
}

BandwidthModel random_bandwidth(Rng& rng) {
  BandwidthModel bw;
  bw.enabled = true;
  bw.fmem_accesses_per_sec = 1e7 + 1e9 * rng.next_double();
  bw.smem_accesses_per_sec = 1e6 + 1e8 * rng.next_double();
  bw.saturation = 0.5 + 0.49 * rng.next_double();
  bw.max_factor = 1.5 + 4.0 * rng.next_double();
  bw.damping = rng.next_double();
  return bw;
}

TEST(CostModelEquivalence, BeRatesMatchTheTwoTierClosedForm) {
  Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    const auto lat_f = static_cast<Duration>(rng.next_between(40, 300));
    const auto lat_s = static_cast<Duration>(rng.next_between(lat_f, 1200));
    TieredMemory mem(TieredMemory::Config::two_tier(rng.next_below(4096) + 1, 1 << 16,
                                                    lat_f, lat_s));
    BEWorkload be(mem, 1, pr_config(BEScale::kTest, 8_MiB, 1 + trial % 8), kFastestFirst,
                  nullptr, 1);
    // Scatter pages across both tiers so the resident weight is arbitrary.
    const auto& pages = be.space().pages();
    for (int k = 0; k < 400; ++k) {
      const PageId p = pages[rng.next_below(pages.size())];
      mem.migrate(p, static_cast<TierId>(1 - mem.tier_of(p)));
    }
    mem.set_contention_factor(0, 1.0 + 3.0 * rng.next_double());
    mem.set_contention_factor(1, 1.0 + 3.0 * rng.next_double());

    EXPECT_EQ(be.current_rate(), ref_rate_for_weight(be, mem, be.fmem_weight())) << trial;
    EXPECT_EQ(be.perf_full(), ref_perf_full(be, mem)) << trial;
    for (int k = 0; k < 20; ++k) {
      const std::uint64_t g = rng.next_below(pages.size() + 16);
      EXPECT_EQ(be.rate_at_pages(g), ref_rate_for_weight(be, mem, be.hit_fraction_at_pages(g)))
          << trial << " g=" << g;
      const double w = rng.next_double();
      const double lf = 40.0 + 400.0 * rng.next_double();
      const double ls = lf + 2000.0 * rng.next_double();
      EXPECT_EQ(be.rate_under(w, lf, ls), ref_rate_under(be.config(), w, lf, ls)) << trial;
    }
  }
}

TEST(CostModelEquivalence, ContentionStepMatchesTheTwoTierDemandSplit) {
  Rng rng(12);
  for (int trial = 0; trial < 500; ++trial) {
    const BandwidthModel bw = random_bandwidth(rng);
    std::vector<RefTenant> be(rng.next_below(6));
    for (RefTenant& t : be) {
      t.acc = 1e9 * rng.next_double();
      t.fmem_weight = rng.next_double();
    }
    const double lc_acc = 1e8 * rng.next_double();
    // An LC tenant with no pages has share 0 everywhere; all of it is "SMem".
    const double lc_ratio = trial % 5 == 0 ? 0.0 : rng.next_double();
    double ref[2] = {1.0 + rng.next_double(), 1.0 + rng.next_double()};
    TierValues got{};
    got[0] = ref[0];
    got[1] = ref[1];
    ref_tick_step(bw, be, lc_acc, lc_ratio, ref);
    contention_step(bw, 2, bw.damping, got, [&](const auto& add) {
      for (const RefTenant& t : be) add(t.acc, TierValues{t.fmem_weight});
      add(lc_acc, TierValues{lc_ratio});
    });
    EXPECT_EQ(got[0], ref[0]) << trial;
    EXPECT_EQ(got[1], ref[1]) << trial;

    // Damping 1 is the SA objective's undamped step: exactly the target.
    double df = 0.0, ds = 0.0;
    for (const RefTenant& t : be) {
      df += t.acc * t.fmem_weight;
      ds += t.acc * (1.0 - t.fmem_weight);
    }
    contention_step(bw, 2, 1.0, got, [&](const auto& add) {
      for (const RefTenant& t : be) add(t.acc, TierValues{t.fmem_weight});
    });
    EXPECT_EQ(got[0], bandwidth_factor(bw, df / bw.fmem_accesses_per_sec)) << trial;
    EXPECT_EQ(got[1], bandwidth_factor(bw, ds / bw.smem_accesses_per_sec)) << trial;
  }
}

SimConfig small_node(std::vector<TierSpec> tiers, const BandwidthModel& bw) {
  SimConfig cfg;
  cfg.tiers = std::move(tiers);
  cfg.lc = redis_config();
  cfg.lc.n_records = 30'000;
  cfg.be = be_suite(BEScale::kTest, 36_MiB, 4, 3);
  cfg.policy = PolicyKind::kMemtis;
  cfg.bandwidth = bw;
  return cfg;
}

TEST(CostModelEquivalence, JointObjectiveMatchesTheTwoTierObjective) {
  Rng rng(13);
  for (int trial = 0; trial < 6; ++trial) {
    // The LC tenant calibrates its service model against the FMem/SMem gap,
    // which must be wide enough for its throughput ratio.
    const auto lat_f = static_cast<Duration>(rng.next_between(40, 300));
    const auto lat_s = static_cast<Duration>(rng.next_between(4 * lat_f, 4 * lat_f + 800));
    ColocationSim sim(small_node({{"fmem", bytes_to_pages(32_MiB), lat_f},
                                  {"smem", bytes_to_pages(512_MiB), lat_s}},
                                 random_bandwidth(rng)));
    // Live factors move perf_full, the objective's normalizer.
    sim.mem().set_contention_factor(0, 1.0 + 3.0 * rng.next_double());
    sim.mem().set_contention_factor(1, 1.0 + 3.0 * rng.next_double());
    for (int k = 0; k < 50; ++k) {
      std::vector<std::uint64_t> alloc(rng.next_below(sim.be_count() + 1));
      for (std::uint64_t& a : alloc) a = rng.next_below(bytes_to_pages(40_MiB));
      EXPECT_EQ(sim.joint_be_objective(alloc), ref_joint_objective(sim, alloc))
          << trial << "/" << k;
    }
  }
}

TEST(CostModelEquivalence, JointObjectiveSeesTheThirdTier) {
  // DRAM and CXL are too small for the LC tenant, which allocates first, so
  // every BE page lands in NVM. With no FMem granted, all BE mass stays there,
  // and a slower NVM must make the split strictly worse.
  const auto objective_at = [](Duration nvm_latency) {
    BandwidthModel bw;
    bw.enabled = true;
    ColocationSim sim(small_node({{"dram", bytes_to_pages(8_MiB), 73},
                                  {"cxl", bytes_to_pages(16_MiB), 202},
                                  {"nvm", bytes_to_pages(512_MiB), nvm_latency}},
                                 bw));
    for (std::size_t i = 0; i < sim.be_count(); ++i)
      EXPECT_EQ(sim.mem().workload_pages(sim.be(i).id(), 2), sim.be(i).space().num_pages());
    return sim.joint_be_objective(std::vector<std::uint64_t>(sim.be_count(), 0));
  };
  EXPECT_LT(objective_at(900), objective_at(450));
}

}  // namespace
}  // namespace mtat

// Per-layer probes: each calls one layer's public API in isolation, on
// inputs sized to the workload's node geometry, and reports a cost per
// operation. Multiplied by the workload's own registry counts, these costs
// attribute the run's wall time layer by layer (see main.cc).
#include <algorithm>
#include <cmath>
#include <memory>

#include "bench.h"
#include "core/sa_partitioner.h"
#include "mem/migration_engine.h"
#include "obs/names.h"
#include "rl/sac.h"
#include "sim/experiments.h"
#include "telemetry/access_sampler.h"
#include "telemetry/page_hotness.h"

namespace mtat::record {

namespace {

using Layer = std::map<std::string, double>;

// Keeps probe results observable so the measured loops are not elided.
std::uint64_t g_sink = 0;  // written by the main thread only

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Median wall seconds of `reps` calls of `fn`, after one untimed warm-up.
template <class Fn>
double median_wall(int reps, Fn&& fn) {
  fn();
  std::vector<double> walls;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    walls.push_back(seconds_since(t0));
  }
  return median(walls);
}

struct Geometry {
  NodeGeometry node;
  double load_rps = 0;    ///< mean offered LC load per node
  std::uint64_t pages = 0;  ///< pages the node's tenants allocate
};

Geometry geometry_for(const Options& opt) {
  Geometry g;
  const bool node = opt.workload == "node_mtat";
  g.node = node ? small_geometry() : fleet_geometry();
  const LCConfig lc = scaled_redis(g.node);
  // node_mtat: the trapezoid's time-averaged load at 0.9x max; fleets: the
  // mean tenant load per node (0.8 x 0.6 x max).
  g.load_rps = (node ? 0.9 * 0.55 : 0.8 * 0.6) * lc.max_load_krps * 1000.0;
  g.pages = bytes_to_pages(static_cast<Bytes>(lc.n_records * lc.record_size)) +
            static_cast<std::uint64_t>(g.node.n_be) * bytes_to_pages(g.node.be_rss);
  return g;
}

TieredMemory::Config mem_config(const NodeGeometry& g) {
  return TieredMemory::Config::two_tier(bytes_to_pages(g.fmem), bytes_to_pages(g.smem));
}

/// Index stream with a 90/10 skew: 90% of the accesses land on 10% of pages.
std::vector<PageId> skewed_pages(std::uint64_t pages, std::uint64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<PageId> out(n);
  const std::uint64_t hot = std::max<std::uint64_t>(1, pages / 10);
  for (auto& p : out)
    p = static_cast<PageId>(rng.next_below(10) < 9 ? rng.next_below(hot) : rng.next_below(pages));
  return out;
}

void probe_telemetry(const Geometry& g, Layer& L) {
  TieredMemory mem(mem_config(g.node));
  mem.allocate(0, g.pages, kFastestFirst);
  const std::uint64_t records = std::uint64_t{1} << 20;
  const std::vector<PageId> idx = skewed_pages(g.pages, records, 2024);

  {
    PageHotness hist(mem);
    hist.seed_allocated_pages();
    const std::uint64_t age_every = records / 8;
    const double wall = median_wall(3, [&] {
      std::uint64_t until_age = age_every;
      for (const PageId p : idx) {
        hist.record_access(0, p);
        if (--until_age == 0) {
          hist.age();
          until_age = age_every;
        }
      }
      g_sink += hist.tracked_pages();
    });
    L.emplace("telemetry.record_age_ns", wall * 1e9 / static_cast<double>(records));
    // Pulls from the populated histogram: the per-tick policy read path.
    const std::size_t batch = 64;
    const int iters = 2000;
    std::size_t pulled = 0;
    const double pull_wall = median_wall(3, [&] {
      pulled = 0;
      for (int i = 0; i < iters; ++i)
        pulled += hist.hottest_in_tier(kFastestTier + 1, batch).size() +
                  hist.coldest_in_tier(kFastestTier, batch).size();
      g_sink += pulled;
    });
    L.emplace("telemetry.pull_ns",
              pull_wall * 1e9 / static_cast<double>(std::max<std::size_t>(1, pulled)));
  }
  {
    AccessSampler sampler(mem, 1);
    PageHotness hist(mem);
    hist.seed_allocated_pages();
    sampler.add_sink(&hist);
    const double wall = median_wall(3, [&] {
      std::uint64_t i = 0;
      for (const PageId p : idx)
        sampler.on_sampled_access(mem.owner_of(p), p,
                                  (i++ & 3) == 0 ? AccessKind::kWrite : AccessKind::kRead);
      g_sink += sampler.peek(0).total();
    });
    L.emplace("telemetry.ingest_ns", wall * 1e9 / static_cast<double>(records));
  }
}

void probe_migration(const Geometry& g, Layer& L) {
  TieredMemory mem(mem_config(g.node));
  mem.allocate(0, g.pages, kFastestFirst);
  PageHotness hist(mem);
  hist.seed_allocated_pages();
  MigrationEngine::Config cfg;
  cfg.bandwidth_bytes_per_sec = 64.0 * 1024 * 1024 * 1024;
  MigrationEngine eng(mem, cfg);
  // Round trips on pages resident in the slow tier (the node's spill).
  std::vector<PageId> slow;
  for (const PageId p : mem.pages_of(0))
    if (mem.tier_of(p) != kFastestTier && slow.size() < 1024) slow.push_back(p);
  if (slow.empty()) return;
  // Make room in FMem for the promotions.
  for (std::size_t i = 0; i < slow.size(); ++i) {
    if (eng.budget_pages() < 2) eng.begin_interval(seconds(1));
    eng.demote(mem.pages_of(0)[i]);
  }
  const std::uint64_t trips = std::uint64_t{1} << 17;
  const double wall = median_wall(3, [&] {
    for (std::uint64_t i = 0; i < trips; ++i) {
      if (eng.budget_pages() < 2) eng.begin_interval(seconds(1));
      const PageId p = slow[i % slow.size()];
      eng.promote(p);
      eng.demote(p);
    }
    g_sink += mem.total_migrations();
  });
  L.emplace("mem.migrate_ns", wall * 1e9 / static_cast<double>(2 * trips));
}

void probe_loadgen(const Geometry& g, Layer& L) {
  TieredMemory mem(mem_config(g.node));
  const LCConfig lc_cfg = scaled_redis(g.node);
  LCWorkload lc(mem, 0, lc_cfg, kFastestFirst, 99);
  AccessSampler sampler(mem, lc_cfg.sample_period);
  PageHotness hist(mem);
  hist.seed_allocated_pages();
  sampler.add_sink(&hist);
  lc.space().set_observer(&sampler);
  obs::RunContext ctx(obs::RunContext::TraceMode::kPrivate);
  QueueSim queue(lc, seconds(1), 7);
  queue.set_run_context(&ctx);
  const LoadPattern pattern = LoadPattern::constant(g.load_rps);
  queue.set_pattern(&pattern, 0);
  queue.run_until(seconds(1));
  const double before = counter(ctx.metrics(), obs::names::kQueueArrivals);
  const auto t0 = std::chrono::steady_clock::now();
  queue.run_until(seconds(6));
  const double wall = seconds_since(t0);
  const double requests = counter(ctx.metrics(), obs::names::kQueueArrivals) - before;
  L.emplace("loadgen.request_ns", wall * 1e9 / std::max(1.0, requests));
}

/// BE ticks on a settled node of the workload's own policy (its telemetry
/// sinks are part of a BE tick's cost), MEMTIS on_tick on a settled MEMTIS
/// node, and the SA partitioner over the node's BE models.
void probe_ticks(const Geometry& g, std::uint64_t seed, Layer& L) {
  const LoadPattern pattern = LoadPattern::constant(g.load_rps);
  const int ticks = 400;
  obs::RunContext ctx(obs::RunContext::TraceMode::kPrivate);
  ColocationSim sim(node_config(g.node, seed), &ctx);
  sim.run(pattern, seconds(2), /*measure=*/false);
  const Duration tick = sim.config().tick;
  double be_s = 0;
  for (int i = 0; i < ticks; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t b = 0; b < sim.be_count(); ++b) sim.be(b).tick(tick);
    be_s += seconds_since(t0);
  }
  L.emplace("workloads.be_tick_us",
            be_s * 1e6 / (ticks * static_cast<double>(std::max<std::size_t>(1, sim.be_count()))));

  NodeGeometry mg = g.node;
  mg.policy = PolicyKind::kMemtis;
  obs::RunContext memtis_ctx(obs::RunContext::TraceMode::kPrivate);
  ColocationSim memtis(node_config(mg, seed), &memtis_ctx);
  memtis.run(pattern, seconds(2), /*measure=*/false);
  double policy_s = 0;
  for (int i = 0; i < ticks; ++i) {
    memtis.engine().begin_interval(tick);
    const auto t0 = std::chrono::steady_clock::now();
    memtis.policy().on_tick(memtis.now() + static_cast<SimTime>(i) * tick, tick);
    policy_s += seconds_since(t0);
    // BE ticks between policy ticks keep the hotness telemetry moving.
    for (std::size_t b = 0; b < memtis.be_count(); ++b) memtis.be(b).tick(tick);
  }
  L.emplace("policy.memtis_tick_us", policy_s * 1e6 / ticks);

  // Contention-aware SA objective over this node's BE models, exactly as
  // ColocationSim wires it for MTAT: per-tenant ideal placement under the
  // bandwidth factors the placement itself induces.
  const BandwidthModel& bw = sim.config().bandwidth;
  const double base_f = static_cast<double>(sim.mem().base_latency(kFastestTier));
  const double base_s = static_cast<double>(sim.mem().base_latency(kFastestTier + 1));
  const std::size_t n = sim.be_count();
  const auto objective = [&](const std::vector<std::uint64_t>& alloc) {
    double ff = 1.0, fs = 1.0;
    std::vector<double> hit(n);
    for (std::size_t i = 0; i < n; ++i)
      hit[i] = sim.be(i).hit_fraction_at_pages(i < alloc.size() ? alloc[i] : 0);
    for (int it = 0; it < 4; ++it) {
      double df = 0.0, ds = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double acc = sim.be(i).rate_under(hit[i], base_f * ff, base_s * fs) *
                           sim.be(i).config().profile.accesses_per_iteration;
        df += acc * hit[i];
        ds += acc * (1.0 - hit[i]);
      }
      ff = bandwidth_factor(bw, df / bw.fmem_accesses_per_sec);
      fs = bandwidth_factor(bw, ds / bw.smem_accesses_per_sec);
    }
    double min_np = 1.0, sum_np = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double np = sim.be(i).rate_under(hit[i], base_f * ff, base_s * fs) /
                        sim.be(i).perf_full();
      min_np = std::min(min_np, np);
      sum_np += np;
    }
    return min_np + 1e-6 * sum_np;
  };
  std::vector<std::uint64_t> caps;
  for (std::size_t i = 0; i < n; ++i) caps.push_back(sim.be(i).space().num_pages());
  const std::uint64_t fmem_pages = bytes_to_pages(g.node.fmem);
  SAOptions sa;
  sa.unit_pages = std::max<std::uint64_t>(1, fmem_pages / 32);
  int iterations = 0;
  std::uint64_t rng_seed = seed;
  const double wall = median_wall(5, [&] {
    Rng rng(++rng_seed);
    const SAResult r = anneal_partition(objective, caps, fmem_pages / 2, sa, rng);
    iterations = r.iterations;
  });
  L.emplace("core.sa_anneal_us", wall * 1e6);
  L.emplace("core.sa_iterations", iterations);
}

void probe_rl(Layer& L) {
  SacConfig cfg;
  SacAgent agent(cfg);
  Rng rng(5);
  const auto draw = [&] {
    return std::vector<double>{rng.next_double(), rng.next_double(), rng.next_double()};
  };
  for (int i = 0; i < 256; ++i)
    agent.observe(draw(), {2.0 * rng.next_double() - 1.0}, rng.next_double(), draw(), false);
  const std::vector<double> state = {0.5, 0.6, 0.3};
  const int acts = 4000, updates = 100;
  const double act_wall = median_wall(3, [&] {
    double acc = 0;
    for (int i = 0; i < acts; ++i) acc += agent.act(state, /*deterministic=*/true)[0];
    g_sink += std::isfinite(acc) ? 1 : 0;
  });
  const double update_wall = median_wall(3, [&] { agent.update(updates); });
  L.emplace("rl.act_us", act_wall * 1e6 / acts);
  L.emplace("rl.update_us", update_wall * 1e6 / updates);
}

/// One node of the workload's geometry and policy, driven one interval per
/// run() call at the mean load: tick self time, on_interval distribution,
/// PP-M decide cost, and host time per simulated node-second.
void probe_node(const Geometry& g, PolicyKind policy, std::uint64_t seed, int intervals,
                Layer& L) {
  NodeGeometry ng = g.node;
  ng.policy = policy;
  obs::RunContext ctx(obs::RunContext::TraceMode::kPrivate);
  ColocationSim sim(node_config(ng, seed), &ctx);
  const LoadPattern pattern = LoadPattern::constant(g.load_rps);
  sim.run(pattern, seconds(1), /*measure=*/false);
  const obs::MetricsRegistry& reg = sim.metrics();
  const double policy_before = counter(reg, obs::names::kPolicyWallUs);
  double wall = 0;
  for (int i = 0; i < intervals; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    sim.run(pattern, seconds(1));
    wall += seconds_since(t0);
  }
  const double ticks = intervals * (seconds(1) / sim.config().tick);
  const double policy_us = counter(reg, obs::names::kPolicyWallUs) - policy_before;
  if (policy == g.node.policy) {
    L.emplace("probe.node_wall_ms_per_node_s", wall * 1e3 / intervals);
    L.emplace("sim.tick_self_us", (wall * 1e6 - policy_us) / ticks);
    L.emplace("sim.on_interval_us_p50", hist_pct(reg, obs::names::kPolicyWallUsHist, 50));
    L.emplace("sim.on_interval_us_p99", hist_pct(reg, obs::names::kPolicyWallUsHist, 99));
  }
  if (policy == PolicyKind::kMtatFull) {
    L.emplace("core.ppm_decide_us_p50", hist_pct(reg, obs::names::kPpmDecideWallUs, 50));
    L.emplace("core.ppm_decide_us_p99", hist_pct(reg, obs::names::kPpmDecideWallUs, 99));
  }
}

/// Warm restart cost: replay a checkpoint whose journal is as long as a
/// late fleet_storm epoch's (settle plus nine 1 s windows).
void probe_restore(const Geometry& g, std::uint64_t seed, Layer& L) {
  obs::RunContext ctx(obs::RunContext::TraceMode::kPrivate);
  ColocationSim sim(node_config(g.node, seed), &ctx);
  const LoadPattern pattern = LoadPattern::constant(g.load_rps);
  sim.run(pattern, seconds(1), /*measure=*/false);
  for (int e = 0; e < 9; ++e) {
    sim.reset_stats();
    sim.run(pattern, seconds(1));
  }
  const SimCheckpoint cp = sim.snapshot();
  const double wall = median_wall(3, [&] {
    obs::RunContext rctx(obs::RunContext::TraceMode::kPrivate);
    const auto restored = ColocationSim::restore(cp, &rctx);
    g_sink += static_cast<std::uint64_t>(restored->now());
  });
  L.emplace("sim.restore_ms_per_node_s", wall * 1e3 / to_seconds(cp.replay_time()));
}

void probe_runner(Layer& L) {
  experiments::ParallelRunner runner(kFleetJobs);
  const int n = 2000;
  std::vector<experiments::RunSpec> specs;
  specs.reserve(n);
  for (int i = 0; i < n; ++i) specs.push_back({"noop", [](obs::RunContext&) {}});
  const double wall = median_wall(3, [&] { runner.run_all(specs); });
  L.emplace("sim.runner_spec_overhead_us", wall * 1e6 / n);
}

/// Tracing overhead: the workload's own call, untraced and traced, in
/// alternating pairs. node_mtat: 15 intervals of a fresh MTAT node; fleets:
/// a run of the eight-node self-test fleet.
void probe_trace_overhead(const Options& opt, Layer& L) {
  Options mini = opt;
  mini.tiny = true;
  mini.seconds = 0;
  std::vector<double> ratios;
  for (int pair = 0; pair < 3; ++pair) {
    double wall[2] = {0, 0};
    for (int traced = 0; traced < 2; ++traced) {
      mini.trace = traced == 1;
      Tracer tr(mini.trace);
      if (opt.workload == "node_mtat") {
        obs::RunContext ctx(obs::RunContext::TraceMode::kPrivate);
        ColocationSim sim(node_config(small_geometry(), opt.seed), &ctx);
        const LoadPattern pattern =
            LoadPattern::constant(0.5 * sim.config().lc.max_load_krps * 1000.0);
        for (int i = 0; i < 15; ++i) {
          const std::int64_t t0 = tr.now_ns();
          sim.run(pattern, seconds(1));
          wall[traced] += tr.end_span("run", t0);
        }
      } else {
        wall[traced] = run_fleet(mini, tr, opt.workload == "fleet_storm").call_wall_s;
      }
    }
    ratios.push_back(wall[1] / wall[0]);
  }
  L.emplace("obs.trace_overhead_pct", 100.0 * (median(ratios) - 1.0));
}

}  // namespace

void run_probes(const Options& opt, Tracer& tr, Layer& L) {
  const Geometry g = geometry_for(opt);
  const auto step = [&](const char* name, auto&& fn) {
    const std::int64_t t0 = tr.now_ns();
    fn();
    tr.end_span(name, t0);
  };
  step("probe.telemetry", [&] { probe_telemetry(g, L); });
  step("probe.migration", [&] { probe_migration(g, L); });
  step("probe.loadgen", [&] { probe_loadgen(g, L); });
  step("probe.ticks_sa", [&] { probe_ticks(g, opt.seed, L); });
  step("probe.rl", [&] { probe_rl(L); });
  if (g.node.policy != PolicyKind::kMtatFull) {
    // Fleet nodes: their node-level rows come from a node probe, and PP-M's
    // decide cost (absent from a MEMTIS fleet) from an MTAT node probe.
    step("probe.node", [&] { probe_node(g, g.node.policy, opt.seed, 10, L); });
    step("probe.ppm", [&] { probe_node(g, PolicyKind::kMtatFull, opt.seed, 30, L); });
  }
  step("probe.restore", [&] { probe_restore(g, opt.seed, L); });
  step("probe.runner", [&] { probe_runner(L); });
  if (opt.workload == "node_mtat") {
    // No fleet in this workload: its cluster rows come from the eight-node
    // self-test fleet at the fleet node geometry.
    step("probe.fleet", [&] {
      Options mini = opt;
      mini.workload = "fleet_healthy";
      mini.tiny = true;
      mini.trace = true;
      mini.seconds = 0;
      Tracer quiet(false);
      for (const auto& [k, v] : run_fleet(mini, quiet, false).layer) L.emplace(k, v);
    });
  }
  step("probe.trace_overhead", [&] { probe_trace_overhead(opt, L); });
}

}  // namespace mtat::record

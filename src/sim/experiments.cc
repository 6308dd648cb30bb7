#include "sim/experiments.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/thread_annotations.h"

namespace mtat::experiments {

namespace {

// One flag for every runner instance: nested run_all is forbidden whichever
// runner it goes through, because the inner call would deadlock a one-worker
// pool on itself and scramble the deterministic trace-merge order on any
// larger one. Ownership: a process-wide reentrancy latch, atomic, reset by
// RAII on every exit path — never carries data between runs.
std::atomic<bool> g_run_all_active{false};  // mtat-lint: allow(shared-mutable)

/// First-error capture shared by the worker pool: whichever worker throws
/// first wins, later errors are dropped, and the winning exception is
/// rethrown on the calling thread after the pool joins.
struct ErrorSlot {
  std::exception_ptr take() EXCLUDES(mu) {
    std::lock_guard<std::mutex> lock(mu);
    return first;
  }
  void offer(std::exception_ptr e) EXCLUDES(mu) {
    std::lock_guard<std::mutex> lock(mu);
    if (first == nullptr) first = std::move(e);
  }

  std::mutex mu;
  std::exception_ptr first GUARDED_BY(mu);
};

}  // namespace

ParallelRunner::ParallelRunner(int jobs) : jobs_(jobs) {
  if (jobs_ <= 0) jobs_ = std::max(1u, std::thread::hardware_concurrency());
}

void ParallelRunner::run_all(const std::vector<RunSpec>& specs) {
  if (specs.empty()) return;

  if (g_run_all_active.exchange(true, std::memory_order_acq_rel))
    throw std::logic_error(
        "ParallelRunner::run_all is not reentrant: a RunSpec attempted to start "
        "another run_all (drive nested fan-out from the top level instead)");
  struct Release {
    std::atomic<bool>* flag;
    ~Release() { flag->store(false, std::memory_order_release); }
  } release{&g_run_all_active};

  // Contexts are created up front, in spec order, on the calling thread:
  // private trace rings only exist (and only cost memory) when the global
  // recorder is enabled, i.e. when someone asked for a trace file.
  // Sanctioned context-escape: run_all IS the merge site — it creates the
  // per-spec private contexts and folds them into the shared timeline below.
  obs::TraceRecorder& shared = obs::default_trace();  // mtat-lint: allow(context-escape)
  const bool tracing = shared.enabled();
  std::vector<std::unique_ptr<obs::RunContext>> ctxs;
  ctxs.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ctxs.push_back(std::make_unique<obs::RunContext>(obs::RunContext::TraceMode::kPrivate));
    if (tracing) ctxs.back()->trace().enable(shared.capacity());
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  ErrorSlot error;

  const auto worker = [&] {
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= specs.size()) return;
      try {
        specs[i].fn(*ctxs[i]);
      } catch (...) {
        error.offer(std::current_exception());
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  const int pool = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(jobs_), specs.size()));
  if (pool <= 1) {
    worker();
  } else {
    for (const auto& ctx : ctxs) ctx->set_pool_worker(true);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(pool));
    for (int t = 0; t < pool; ++t) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
  }

  if (std::exception_ptr e = error.take()) std::rethrow_exception(e);

  // Fold the private rings into the shared timeline in spec order: merge
  // order — and therefore the track ids each spec's events land on — depends
  // only on the spec list, never on which worker finished first.
  for (const auto& ctx : ctxs) shared.merge_from(ctx->trace(), shared.next_track());
}

std::vector<LatencyCurvePoint> lc_latency_curve(const LCConfig& lc, double fmem_fraction,
                                                const std::vector<double>& load_fractions,
                                                Duration per_point, std::uint64_t seed,
                                                ParallelRunner* runner) {
  // Size FMem to hold exactly the requested fraction of the workload's
  // footprint; everything else lands in SMem. A zero fraction still needs a
  // nonzero tier, so floor at one page.
  Rng seeder(seed);
  const LCConfig cfg = lc;
  // Determine the footprint by building once against an all-SMem scratch.
  TieredMemory probe_mem(TieredMemory::Config::two_tier(
      1, bytes_to_pages(Bytes{64} * 1024 * 1024 * 1024)));
  LCWorkload probe(probe_mem, 0, cfg, kTierOnly(kFastestTier + 1), seeder.next_u64());
  const std::uint64_t footprint = probe.space().num_pages();

  const TieredMemory::Config mc = TieredMemory::Config::two_tier(
      std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(fmem_fraction * static_cast<double>(footprint))),
      footprint + 1024);

  // Per-point seeds are drawn here, in point order, so the result cannot
  // depend on the execution schedule; each point then runs on a fresh
  // memory/workload/queue triple and writes its own slot of `out`.
  struct PointPlan {
    double rate = 0;
    std::uint64_t wl_seed = 0;
    std::uint64_t queue_seed = 0;
  };
  std::vector<PointPlan> plan(load_fractions.size());
  for (std::size_t i = 0; i < load_fractions.size(); ++i) {
    plan[i].rate = load_fractions[i] * cfg.max_load_krps * 1000.0;
    plan[i].wl_seed = seeder.next_u64();
    plan[i].queue_seed = seeder.next_u64();
  }

  std::vector<LatencyCurvePoint> out(load_fractions.size());
  const auto run_point = [&](std::size_t i) {
    const PointPlan& pp = plan[i];
    TieredMemory mem(mc);
    LCWorkload wl(mem, 0, cfg, kFastestFirst, pp.wl_seed);
    QueueSim queue(wl, seconds(1), pp.queue_seed);
    const LoadPattern pattern = LoadPattern::constant(pp.rate);
    queue.set_pattern(&pattern, 0);
    const Duration warm = per_point / 5;
    queue.run_until(warm);
    queue.recorder().collect_interval();  // discard warmup
    const std::uint64_t before = queue.completed();
    queue.run_until(per_point);
    const LatencyHistogram h = queue.recorder().collect_interval();
    LatencyCurvePoint p;
    p.offered_krps = pp.rate / 1000.0;
    p.p99_ms = static_cast<double>(h.percentile(99.0)) / 1e6;
    p.achieved_krps = static_cast<double>(queue.completed() - before) /
                      to_seconds(per_point - warm) / 1000.0;
    out[i] = p;
  };

  if (runner == nullptr) {
    for (std::size_t i = 0; i < plan.size(); ++i) run_point(i);
  } else {
    std::vector<RunSpec> specs;
    specs.reserve(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i)
      specs.push_back({cfg.name + "@point" + std::to_string(i),
                       [&run_point, i](obs::RunContext&) { run_point(i); }});
    runner->run_all(specs);
  }
  return out;
}

namespace {

// Shared precondition of both bisection overloads. A NaN bracket endpoint
// would poison every midpoint (0.5 * (lo + NaN) is NaN) and the map-keyed
// parallel variant would then probe and cache garbage; an inverted bracket
// silently bisects the wrong way. Both are caller bugs — fail loudly.
void check_bracket(double lo_krps, double hi_krps) {
  if (!std::isfinite(lo_krps) || !std::isfinite(hi_krps))
    throw std::invalid_argument("find_max_load: non-finite bracket [" +
                                std::to_string(lo_krps) + ", " + std::to_string(hi_krps) + "]");
  if (lo_krps > hi_krps)
    throw std::invalid_argument("find_max_load: inverted bracket [" +
                                std::to_string(lo_krps) + ", " + std::to_string(hi_krps) + "]");
}

}  // namespace

double find_max_load(const std::function<bool(double)>& sustainable, double lo_krps,
                     double hi_krps, int iters) {
  check_bracket(lo_krps, hi_krps);
  double lo = lo_krps, hi = hi_krps;
  if (!sustainable(lo)) return lo;
  for (int i = 0; i < iters; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (sustainable(mid))
      lo = mid;
    else
      hi = mid;
  }
  return lo;
}

double find_max_load(const std::function<bool(double, obs::RunContext&)>& sustainable,
                     double lo_krps, double hi_krps, int iters, ParallelRunner& runner) {
  check_bracket(lo_krps, hi_krps);
  // Mirrors the serial recurrence exactly, two levels at a time: each batch
  // evaluates the current midpoint plus *both* midpoints it could lead to
  // (the full depth-2 frontier), so whatever the current probe decides, the
  // next level's answer is already in hand. Midpoints are computed with the
  // same 0.5 * (lo + hi) expression the serial loop uses, on the same
  // values, so the probe points — map keys included — are bit-identical to
  // the serial trajectory, and the result is too.
  std::map<double, bool> known;
  const auto probe = [&](const std::vector<double>& points) {
    std::vector<double> todo;
    for (double x : points)
      if (known.count(x) == 0 && std::find(todo.begin(), todo.end(), x) == todo.end())
        todo.push_back(x);
    if (todo.empty()) return;
    std::vector<char> ok(todo.size(), 0);
    std::vector<RunSpec> specs;
    specs.reserve(todo.size());
    for (std::size_t i = 0; i < todo.size(); ++i) {
      const double x = todo[i];
      specs.push_back({"probe@" + std::to_string(x) + "krps",
                       [&sustainable, &ok, i, x](obs::RunContext& ctx) {
                         ok[i] = sustainable(x, ctx) ? 1 : 0;
                       }});
    }
    runner.run_all(specs);
    for (std::size_t i = 0; i < todo.size(); ++i) known[todo[i]] = ok[i] != 0;
  };

  double lo = lo_krps, hi = hi_krps;
  const auto resolve = [&] {
    const double mid = 0.5 * (lo + hi);
    if (known.at(mid))
      lo = mid;
    else
      hi = mid;
  };

  // First batch: the lo feasibility check rides along with the first frontier
  // instead of gating it — one extra speculative level beats a serial stall.
  {
    const double m = 0.5 * (lo + hi);
    if (iters >= 2)
      probe({lo, m, 0.5 * (lo + m), 0.5 * (m + hi)});
    else if (iters == 1)
      probe({lo, m});
    else
      probe({lo});
  }
  if (!known.at(lo_krps)) return lo_krps;
  int remaining = iters;
  if (remaining >= 1) {
    resolve();
    --remaining;
  }
  if (remaining >= 1 && iters >= 2) {
    resolve();
    --remaining;
  }
  while (remaining > 0) {
    const double m = 0.5 * (lo + hi);
    if (remaining >= 2) {
      probe({m, 0.5 * (lo + m), 0.5 * (m + hi)});
      resolve();
      resolve();
      remaining -= 2;
    } else {
      probe({m});
      resolve();
      --remaining;
    }
  }
  return lo;
}

bool probe_slo_sustainable(ColocationSim& sim, double krps, Duration warm, Duration duration,
                           double max_violation_rate) {
  const LoadPattern pattern = LoadPattern::constant(krps * 1000.0);
  sim.run(pattern, warm, /*measure=*/false);
  sim.reset_stats();
  sim.run(pattern, duration, /*measure=*/true);
  // A NaN violation rate (possible only if measurement itself broke) must
  // read as "not sustainable", not as the false a NaN comparison yields by
  // accident — the bisection would otherwise certify a broken operating point.
  const double rate = sim.result().slo_violation_rate;
  return std::isfinite(rate) && rate <= max_violation_rate;
}

}  // namespace mtat::experiments

// The benchmark of record: shared declarations.
//
// Three workloads (node_mtat, fleet_healthy, fleet_storm) drive the
// simulator's public API in a closed loop — each call starts after the
// previous one returns — and every figure is measured from outside: the
// benchmark times its own calls, reads counters the simulator already keeps
// in its obs::MetricsRegistry, and runs per-layer probes (a layer's public
// function on inputs sized to the workload's geometry). Nothing here adds
// instrumentation to the simulator. See benchmark/README.md.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/cluster_sim.h"
#include "obs/trace.h"
#include "sim/colocation_sim.h"
#include "workloads/be/be_suite.h"

namespace mtat::record {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< measured host time per run (a floor, see README)
  bool trace = false;   ///< per-layer run instead of the end-to-end run
  bool tiny = false;    ///< self-test size: seconds of work, not minutes
};

/// Shard workers of the fleet workloads' ParallelRunner (the host has 4).
inline constexpr int kFleetJobs = 2;
/// Where manifests and traces go, relative to the working directory.
inline constexpr const char* kOutDir = ".bench_out";

/// Host wall clock and the benchmark's own span recorder. Spans are placed
/// on a host-time axis (ns since the benchmark started); the recorder only
/// records when tracing is on, so the end-to-end run pays one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }
  /// Record [start_ns, now) under `name` (a string literal); returns the
  /// span's length in seconds.
  double end_span(const char* name, std::int64_t start_ns);

  obs::TraceRecorder& recorder() { return rec_; }

 private:
  std::chrono::steady_clock::time_point origin_;
  obs::TraceRecorder rec_;
};

/// What a workload run produced, before it is turned into metrics. The
/// per-layer map is filled only on traced runs.
///
/// Host-time figures are least-disturbed times. The host has slow phases
/// (about 1.45x slower, lasting from under a second to ~15 s), so each unit
/// of work a run repeats — a node_mtat interval position across passes, a
/// fleet sub-fleet across cycles — keeps the smallest wall time any of its
/// repetitions took. A slow phase then moves a unit only if it covers every
/// repetition of that unit. The exception is node_mtat's p99, taken over
/// every timed interval: slow phases fall in every run, so the tail is
/// steadier with them than without, and it keeps ten samples beyond it.
struct Observations {
  std::vector<double> setup_s;           ///< one per set-up repetition
  std::vector<double> interval_wall_ms;  ///< least-disturbed wall, one per unit (p50)
  std::vector<double> interval_tail_ms;  ///< the samples p99 is taken over
  double sim_s_per_wall_s = 0;           ///< useful node-s of all units / their walls
  double useful_sim_s = 0;               ///< useful simulated node-seconds, all calls
  double call_wall_s = 0;                ///< host time inside simulator calls
  double slo_compliance_pct = 0;         ///< simulated
  double be_fairness = 0;                ///< simulated
  double lc_p99_ms = 0;                  ///< simulated
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string digest;                    ///< hex digest of every simulated output
  std::map<std::string, double> layer;   ///< per-layer values (traced runs)
  std::vector<std::string> notes;        ///< human-readable lines for stdout
};

// --- geometry ----------------------------------------------------------------

/// Per-node platform of a workload: memory sizes, BE tenants, node policy.
struct NodeGeometry {
  Bytes fmem = 0;
  Bytes smem = 0;
  Bytes be_rss = 0;
  BEScale be_scale = BEScale::kDefault;
  int n_be = 4;
  PolicyKind policy = PolicyKind::kMtatFull;
};

NodeGeometry small_geometry();  ///< DESIGN.md "small": 128 MiB / 2 GiB, 4 BE, MTAT
NodeGeometry fleet_geometry();  ///< "smoke" node: 32 MiB / 512 MiB, 2 BE, MEMTIS

/// Redis sized so its record heap is ~1.05x FMem, as every paper bench does.
LCConfig scaled_redis(const NodeGeometry& g);
SimConfig node_config(const NodeGeometry& g, std::uint64_t seed);

/// Fleet configs. `tiny` shrinks the fleet for self-tests.
cluster::ClusterConfig fleet_config(bool storm, std::uint64_t seed, bool tiny);

// --- workloads (workloads.cc) ---------------------------------------------------

Observations run_node_mtat(const Options& opt, Tracer& tr);
Observations run_fleet(const Options& opt, Tracer& tr, bool storm);

// --- per-layer probes (probes.cc) ----------------------------------------------

/// Run every probe sized to `workload`'s geometry and add its values to
/// `layer` without overwriting values the workload run measured itself.
void run_probes(const Options& opt, Tracer& tr, std::map<std::string, double>& layer);

// --- output checks and digests (checks.cc) --------------------------------------

/// Number of violated invariants of one interval's TimePoint (0 = correct).
int check_time_point(const TimePoint& tp, std::size_t n_be, double interval_end_s);
/// Violations in one SimResult (every TimePoint plus the aggregates).
int check_sim_result(const SimResult& r, std::size_t n_be);
/// Node-epochs of `r` that fail a check. Per epoch: demand conservation,
/// placed + queued = all tenants, finite ranges; a violation fails every
/// node-epoch of that epoch. Per run: node-seconds >= useful and each
/// final-epoch node slice; a violation fails one node-epoch.
std::uint64_t fleet_failed_node_epochs(const cluster::ClusterResult& r,
                                       const std::vector<cluster::TenantStream>& tenants,
                                       double placements_total, std::size_t n_be);
/// Node-epochs in `r` (alive or crashed), the fleet's operation count.
std::uint64_t fleet_node_epochs(const cluster::ClusterResult& r);

/// FNV-1a over a canonical text rendering of the simulated outputs.
class Digest {
 public:
  void add(const std::string& s);
  void add(double v);
  void add(std::int64_t v);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};
std::string digest_sim(const SimResult& r, const std::string& fingerprint);
std::string digest_fleet(const cluster::ClusterResult& r);

// --- small helpers --------------------------------------------------------------

/// A registry counter's value, 0 when the run never registered it.
double counter(const obs::MetricsRegistry& reg, const char* name);
/// A registry histogram's percentile, 0 when it is missing or empty.
double hist_pct(const obs::MetricsRegistry& reg, const char* name, double pct);

/// Nearest-rank percentile of `v` (copied and sorted); NaN when empty.
double percentile(std::vector<double> v, double pct);
double median(std::vector<double> v);

}  // namespace mtat::record

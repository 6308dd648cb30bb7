// The co-location experiment engine.
//
// Owns one complete reproduction of the paper's server: a tiered memory, a
// bandwidth-budgeted migration engine, PEBS-like telemetry, one LC workload
// behind an open-loop M/G/k queue, a set of BE workloads, and one placement
// policy (MTAT variant or baseline). run() advances everything on a shared
// simulated clock; per-interval rows give the time series behind Figures 2
// and 5, and the aggregate metrics give fairness/throughput/SLO-violation
// numbers behind Figures 6, 8, 9 and Tables 3-4.
//
// Allocation order reproduces the paper's setup: the LC workload allocates
// first and FMem-first (Figure 2: "Redis initially occupies 100% of available
// FMem"), BE workloads spill to SMem — except under the static pins, which
// place LC (FMEM_ALL) or BE (SMEM_ALL) exclusively.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/mtat_policy.h"
#include "loadgen/queue_sim.h"
#include "mem/migration_engine.h"
#include "mem/tiered_memory.h"
#include "obs/run_context.h"
#include "policy/memtis_policy.h"
#include "policy/vtmm_policy.h"
#include "policy/damon_policy.h"
#include "policy/memtis_hp_policy.h"
#include "policy/policy.h"
#include "policy/static_policy.h"
#include "policy/tpp_policy.h"
#include "sim/tenant_lanes.h"
#include "telemetry/access_sampler.h"
#include "workloads/be/be_workload.h"
#include "workloads/lc/lc_workload.h"

namespace mtat {

/// kVtmm and kDamon are extensions beyond the paper's comparison set (see
/// policy/vtmm_policy.h and policy/damon_policy.h); the rest are §5's
/// comparison points.
enum class PolicyKind {
  kMtatFull, kMtatLcOnly, kMemtis, kTpp, kFmemAll, kSmemAll, kVtmm, kDamon, kMemtisHp
};

const char* policy_name(PolicyKind k);

/// Optional tier-bandwidth contention model (§7's bandwidth-aware policy
/// discussion): when a tier's aggregate access demand approaches its
/// sustainable rate, its effective per-access latency inflates, which feeds
/// back into every workload's throughput and the LC service times.
struct BandwidthModel {
  bool enabled = false;
  /// Sustainable access rates: tier 0 gets the FMem rate, every slower tier
  /// (in any topology) the SMem rate.
  double fmem_accesses_per_sec = 600e6;
  double smem_accesses_per_sec = 45e6;
  /// Inflation curve: latency factor = 1 / (1 - saturation * utilization),
  /// the standard open-queue approximation; `saturation` < 1 softens it so
  /// the coupled demand/latency fixed point stays stable.
  double saturation = 0.8;
  double max_factor = 4.0;  ///< latency inflation cap
  /// Per-tick EWMA damping of the factor (demand is elastic in latency, so
  /// the undamped one-step iteration can oscillate).
  double damping = 0.1;
};

/// The latency-inflation curve of the bandwidth model at utilization `rho`.
inline double bandwidth_factor(const BandwidthModel& bw, double rho) {
  const double r = std::min(0.999, rho);
  return std::min(bw.max_factor, std::max(1.0, 1.0 / (1.0 - bw.saturation * r)));
}

/// One step of the demand/latency fixed point over `n` tiers, shared by the
/// per-tick model (damped) and PP-M's joint SA objective (undamped).
/// `tenants(add)` calls add(accesses_per_sec, w) per tenant, `w` its split in
/// remainder form; each factor then moves `damping` of the way to its target.
template <class Tenants>
void contention_step(const BandwidthModel& bw, std::size_t n, double damping,
                     TierValues& factor, Tenants&& tenants) {
  TierValues demand{};
  tenants([&demand, n](double acc, const TierValues& w) {
    for (std::size_t t = 0; t + 1 < n; ++t) demand[t] += acc * w[t];
    demand[n - 1] += acc * slowest_share(w, n);
  });
  for (TierId t = 0; t < n; ++t) {
    const double rate = t == kFastestTier ? bw.fmem_accesses_per_sec : bw.smem_accesses_per_sec;
    const double target = bandwidth_factor(bw, demand[t] / rate);
    factor[t] = (1.0 - damping) * factor[t] + damping * target;
  }
}

struct SimConfig {
  // --- platform (DESIGN.md §5 scaled defaults) ---
  Bytes fmem = Bytes{2} * 1024 * 1024 * 1024;
  Bytes smem = Bytes{16} * 1024 * 1024 * 1024;
  double migration_bandwidth = 4.0 * 1024 * 1024 * 1024;  ///< bytes/s (§5.5)
  /// Explicit tier vector (fastest first, e.g. from parse_topology). Empty —
  /// the default — means the two-tier preset built from the three fields
  /// above; non-empty overrides them, and each tier's link bandwidth feeds
  /// the migration engine's per-link budgets.
  std::vector<TierSpec> tiers;
  /// The node's tier vector: `tiers`, or the two-tier preset (paper latencies,
  /// link 0 at migration_bandwidth). Whatever sizes against FMem reads tier 0.
  TieredMemory::Config memory_config() const;
  // --- timing ---
  Duration tick = milliseconds(10);
  Duration interval = seconds(1);  ///< partitioning interval (paper: 60 s, /60)
  // --- tenants ---
  LCConfig lc;
  std::vector<BEConfig> be;
  // --- policy ---
  BandwidthModel bandwidth;
  PolicyKind policy = PolicyKind::kMtatFull;
  MtatPolicy::Options mtat;    ///< tunables for the MTAT variants
  SacAgent* shared_agent = nullptr;  ///< persist RL learning across sims
  std::uint64_t seed = 42;
};

/// One partitioning-interval row of the experiment time series.
struct TimePoint {
  double t_sec = 0;
  double offered_rps = 0;
  double lc_p99_ms = 0;
  double lc_throughput_rps = 0;
  double lc_fmem_ratio = 0;   ///< LC pages in FMem / LC RSS (Figure 2 bottom)
  double lc_fmem_share = 0;   ///< LC pages in FMem / FMem capacity (Figure 5)
  std::vector<double> be_fmem_share;   ///< per BE, of FMem capacity
  std::vector<double> be_throughput;   ///< per BE, iterations/s this interval

  template <class Ar>
  void persist(Ar& ar) {
    ar(t_sec, offered_rps, lc_p99_ms, lc_throughput_rps, lc_fmem_ratio, lc_fmem_share,
       be_fmem_share, be_throughput);
  }
};

/// Aggregates over the measured portion of a run.
struct SimResult {
  std::vector<TimePoint> series;
  double lc_p99_ms = 0;            ///< P99 over the whole measured phase
  double slo_violation_rate = 0;   ///< fraction of requests over SLO (Table 4)
  std::uint64_t lc_completed = 0;
  std::vector<double> be_rate;     ///< mean iterations/s per BE
  std::vector<double> be_np;       ///< Eq. 3 normalized performance per BE
  double fairness = 0;             ///< min_i NP_i (§5.1's fairness metric)
  double be_total_throughput = 0;  ///< sum of mean BE rates (Figure 6b)
  double be_mean_np = 0;           ///< scale-free alternative aggregate
  /// §5.5 overhead proxies. Both are derived views over the sim's
  /// MetricsRegistry ("migration.pages_moved", "policy.wall_us",
  /// "sim.measured_intervals"), not separate bookkeeping — the registry's
  /// "derived.*" gauges carry the same values.
  double migration_bytes_per_sec = 0;      ///< PP-E overhead proxy (§5.5)
  double policy_wall_us_per_interval = 0;  ///< PP-M overhead proxy (§5.5)
};

/// A deterministic checkpoint of a ColocationSim (DESIGN.md §17): the
/// construction config, the compact `state` every mutable field of the sim
/// was saved into (common/state_archive.h), and the journal of every
/// run()/reset_stats() call the sim has executed.
///
/// restore() boots a fresh sim from the config and loads the state, at a
/// cost proportional to the state, not the history. The journal is the
/// reference semantics: under the determinism contract the sim's state is a
/// pure function of (config, op sequence), so replay() re-executing it into
/// a fresh instance reaches the same state bit for bit (enforced by
/// tests/checkpoint_test.cc and tests/checkpoint_state_test.cc). Ops hold
/// copies of their LoadPatterns: a checkpoint is plain data that can outlive
/// the sim and cross threads.
struct SimCheckpoint {
  struct Op {
    enum class Kind { kRun, kResetStats };
    Kind kind = Kind::kRun;
    LoadPattern pattern = LoadPattern::constant(0.0);  // kRun only
    Duration duration = 0;                             // kRun only
    bool measure = true;                               // kRun only
  };
  SimConfig config;
  std::vector<Op> ops;
  /// The saved state: no host wall-time measurement is part of it, so equal
  /// histories give equal bytes.
  std::string state;

  /// Total simulated time replaying the journal costs — what replay() pays
  /// to reconstruct the node.
  Duration replay_time() const {
    Duration t = 0;
    for (const Op& op : ops)
      if (op.kind == Op::Kind::kRun) t += op.duration;
    return t;
  }
};

class ColocationSim {
 public:
  /// `ctx` is the run's observability context (metrics registry + trace
  /// recorder). Null (the default) makes the sim own a fresh context that
  /// traces into the process-global recorder — the single-run behaviour
  /// every tool had before contexts existed. A non-null context must outlive
  /// the sim; supply a private-trace context (obs::RunContext::TraceMode::
  /// kPrivate) to run several sims on concurrent threads, as
  /// experiments::ParallelRunner does.
  explicit ColocationSim(const SimConfig& cfg, obs::RunContext* ctx = nullptr);

  ColocationSim(const ColocationSim&) = delete;
  ColocationSim& operator=(const ColocationSim&) = delete;
  ~ColocationSim();

  /// Advance the simulation by `duration` under `pattern` (restarted at the
  /// current time). With measure=false (training/warmup) nothing is recorded.
  void run(const LoadPattern& pattern, Duration duration, bool measure = true);

  /// Aggregates for everything measured since construction (or reset_stats).
  SimResult result() const;

  /// Drop measured data, keeping all simulation and learning state — used
  /// between a training phase and the measured phase.
  void reset_stats();

  /// Checkpoint this sim: its config, its op journal and its saved state
  /// (see SimCheckpoint). O(state + journal). Throws std::logic_error when
  /// the config names a shared_agent, which is not this sim's state. A fault
  /// injector is the run context's, not the sim's, and is not saved either.
  SimCheckpoint snapshot() const;

  /// Rebuild a sim from a checkpoint without re-simulating anything: boot a
  /// fresh instance from cp.config (the boot is memoized, DESIGN.md §14.6),
  /// load cp.state, and take cp.ops as its journal. The result matches the
  /// snapshotted sim bit for bit, including its measurement bookkeeping and
  /// metrics registry (minus wall-time metrics, which restart here), and its
  /// own snapshot() equals cp. `ctx` follows the constructor's contract.
  /// Throws std::invalid_argument on a truncated, extended or garbled state.
  static std::unique_ptr<ColocationSim> restore(const SimCheckpoint& cp,
                                                obs::RunContext* ctx = nullptr);

  /// Rebuild a sim by re-executing cp.ops in a fresh instance: the reference
  /// semantics restore() is tested against, and the path for a history that
  /// must run again under `ctx`'s fault injector (a fleet straggler). The
  /// replayed ops re-enter the new journal, so the result's snapshot() equals
  /// cp. Costs cp.replay_time() of simulation.
  static std::unique_ptr<ColocationSim> replay(const SimCheckpoint& cp,
                                               obs::RunContext* ctx = nullptr);

  /// Structural state digest for checkpoint verification: the sim clock,
  /// per-tier occupancy, per-workload per-tier page counts, and every
  /// PageHotness sink's per-tier bin-occupancy vector. Two sims with equal
  /// fingerprints hold the same memory placement and telemetry state;
  /// metric-level equality is checked separately (wall-time metrics
  /// legitimately differ).
  std::string fingerprint() const;

  LCWorkload& lc() { return *lc_; }
  BEWorkload& be(std::size_t i) { return *be_[i]; }
  std::size_t be_count() const { return be_.size(); }
  TieredMemory& mem() { return *mem_; }
  MigrationEngine& engine() { return *engine_; }
  AccessSampler& sampler() { return *sampler_; }
  TieringPolicy& policy() { return *policy_; }
  const SimConfig& config() const { return cfg_; }
  SimTime now() const { return now_; }

  /// Every signal the sim and its components record (migration counters,
  /// policy wall time, queue depth, RL losses, bandwidth factors). Always on;
  /// export with obs::MetricsRegistry::write_json/write_csv.
  obs::MetricsRegistry& metrics() { return ctx_->metrics(); }
  const obs::MetricsRegistry& metrics() const { return ctx_->metrics(); }

  /// PP-M's contention-aware BE objective (bandwidth model on): min NP +
  /// 1e-6·ΣNP with BE tenant i at split_at_hit of alloc[i] FMem pages, under
  /// the factors four undamped contention_step()s of BE demand give it.
  double joint_be_objective(const std::vector<std::uint64_t>& alloc) const;

  /// The observability context this sim records into (owned or borrowed).
  obs::RunContext& run_context() { return *ctx_; }

  /// Caps the tenant lanes a run() may start at `max` (0: every tick runs
  /// inline). The cap never exceeds host_lane_limit(), which is also the
  /// default. Lanes change no output (DESIGN.md §14.7); tests force them on
  /// and off with this.
  void set_tenant_lanes(std::size_t max);

  /// Lanes the last run() call ran its BE tenants on; 0 when it ran inline.
  std::size_t last_run_lanes() const { return last_run_lanes_; }

 private:
  /// Saves or loads every mutable field (common/state_archive.h): the
  /// clock, each component, the measurement bookkeeping and the registry.
  void persist(StateArchive& ar);
  void record_interval(double offered_rps, Duration lc_p99, Duration interval);
  void apply_contention(double lc_offered_rps);
  void update_derived_gauges();
  /// Whether run() may move BE sample streams onto tenant lanes: a cap
  /// above 0, BE tenants, no pool worker, and every sample consumer
  /// belonging to the sample's own workload.
  bool lanes_allowed() const;
  /// A tick's prepared BE samples on `lanes` (started here on the first
  /// call), beside the LC queue up to `until` on this thread.
  void tenant_phase_on_lanes(std::optional<TenantLanes>& lanes, SimTime until);

  SimConfig cfg_;
  // Declared before the components so an owned context is destroyed after
  // them: engine, queue, and policy cache pointers into its registry and
  // trace recorder. A borrowed context must outlive the sim (caller's
  // contract, see the constructor).
  std::unique_ptr<obs::RunContext> owned_ctx_;
  obs::RunContext* ctx_;
  std::unique_ptr<TieredMemory> mem_;
  std::unique_ptr<MigrationEngine> engine_;
  std::unique_ptr<AccessSampler> sampler_;
  std::unique_ptr<LCWorkload> lc_;
  std::vector<std::unique_ptr<BEWorkload>> be_;
  std::unique_ptr<QueueSim> queue_;
  std::unique_ptr<TieringPolicy> policy_;
  MtatPolicy* mtat_ = nullptr;  // non-null when policy is an MTAT variant
  faults::FaultInjector* inj_ = nullptr;  // the context's injector, or null

  SimTime now_ = 0;
  SimTime next_interval_ = 0;
  std::uint32_t trace_track_ = 0;

  // Checkpoint journal (see SimCheckpoint). Armed only after construction
  // completes: the constructor's own reset_stats() is part of every sim's
  // birth, not of its history.
  std::vector<SimCheckpoint::Op> journal_;
  bool journal_armed_ = false;

  // Cached registry handles (stable for the registry's lifetime).
  obs::Counter* policy_wall_c_ = nullptr;      // "policy.wall_us"
  obs::Histogram* policy_wall_h_ = nullptr;    // "policy.wall_us_hist"
  obs::Counter* intervals_c_ = nullptr;        // "sim.intervals"
  obs::Counter* measured_intervals_c_ = nullptr;  // "sim.measured_intervals"
  obs::Counter* pages_moved_c_ = nullptr;      // "migration.pages_moved" (engine-fed)
  obs::Gauge* bw_factor_g_[kMaxTiers] = {};  // "bw.*_factor", tiers 0..3
  // Registered when lanes first start (wall-exempt, not state).
  obs::Counter* tenant_phase_wall_c_ = nullptr;  // "sim.tenant_phase_wall_us"
  obs::Counter* lane_join_wall_c_ = nullptr;     // "sim.lane_join_wall_us"

  std::size_t lane_cap_ = 0;  // set_tenant_lanes; host_lane_limit() by default
  std::size_t last_run_lanes_ = 0;
  // joint_be_objective()'s per-tenant tier splits, overwritten on every
  // call (scratch, not state).
  mutable std::vector<TierValues> be_split_;

  // Measurement phase bookkeeping. The §5.5 overhead aggregates are derived
  // from registry counters relative to marks captured at reset_stats().
  std::vector<TimePoint> series_;
  LatencyHistogram measured_lat_;
  std::uint64_t measured_requests_ = 0;
  std::uint64_t measured_violations_ = 0;
  std::vector<double> be_measured_iters_;
  Duration measured_time_ = 0;
  double pages_moved_mark_ = 0;      // counter value at reset_stats
  double pages_moved_measured_ = 0;  // counter delta as of the last interval
  // The wall-based proxy's window: host time is not sim state, so restore()
  // restarts the window at the load instead of storing these.
  double policy_wall_mark_ = 0;
  double measured_intervals_mark_ = 0;
  TierValues bw_factor_{};  // damped contention factors, one per tier
};

}  // namespace mtat

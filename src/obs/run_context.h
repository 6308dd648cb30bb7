// Per-run observability state: one MetricsRegistry plus one TraceRecorder.
//
// A RunContext is the unit of observability isolation. Every ColocationSim
// owns or borrows exactly one, and every component that records metrics or
// trace events (MigrationEngine, QueueSim, SacAgent, PP-M, PP-E) is wired to
// it explicitly via set_run_context() — there is no process-global recorder
// in any simulation code path, which is what makes independent sims safe to
// run on concurrent threads (experiments::ParallelRunner).
//
// Two trace modes:
//  * kGlobal (default): the context records trace events into the process-
//    wide recorder behind obs::trace(). This is the single-run mode used by
//    tools/mtat_sim and any bench binary running serially — the MTAT_TRACE
//    environment hook enables that recorder once and every sim in the
//    process shares its timeline (distinct tracks per sim).
//  * kPrivate: the context owns its own TraceRecorder. Parallel experiment
//    points each get a private-trace context so their clocks and tracks
//    cannot race; the runner merges the private rings into the global
//    recorder in deterministic spec order afterwards (distinct track ids —
//    see TraceRecorder::merge_from).
//
// This header is the one sanctioned construction site for contexts over the
// global recorder: code under src/sim, src/core, src/mem, src/rl and
// src/loadgen must not name the global accessor directly (enforced by a
// grep gate in tools/check.sh).
#pragma once

#include <memory>

#include "common/chunk_team.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mtat::faults {
class FaultInjector;
struct FaultPlan;
}  // namespace mtat::faults

namespace mtat::obs {

class RunContext {
 public:
  enum class TraceMode {
    kGlobal,   ///< record into the process-wide recorder (single-run tools)
    kPrivate,  ///< own a recorder (parallel experiment points)
  };

  /// Default: metrics registry of its own, trace events into the global
  /// recorder. kPrivate instead owns a default-disabled TraceRecorder —
  /// enable it (ParallelRunner mirrors the global recorder's state) to
  /// actually collect events.
  explicit RunContext(TraceMode mode = TraceMode::kGlobal);
  ~RunContext();  // out of line: FaultInjector is incomplete here

  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  TraceRecorder& trace() { return *trace_; }
  const TraceRecorder& trace() const { return *trace_; }

  bool owns_trace() const { return owned_trace_ != nullptr; }

  /// Attach a fault injector executing `plan` to this context. Components
  /// wired to the context pick it up in their set_run_context(); call before
  /// constructing the sim. The constructor installs faults::default_plan()
  /// automatically when one is set (the MTAT_FAULTS path), so explicit
  /// installs are only needed for per-point plans (bench sweeps, tests).
  void install_faults(const faults::FaultPlan& plan);

  /// The attached injector, or nullptr — the common case, and the fast path
  /// every fault site checks first. Non-null also signals the degradation
  /// machinery (watchdog, plan abandonment) to arm itself.
  faults::FaultInjector* faults() const { return faults_.get(); }

  /// Marks a context whose run executes on a worker of a thread pool
  /// (experiments::ParallelRunner with more than one job). The pool already
  /// spreads runs over the CPUs, so a sim on it starts no tenant lanes of
  /// its own (DESIGN.md §14.7).
  void set_pool_worker(bool on) { pool_worker_ = on; }
  bool pool_worker() const { return pool_worker_; }

  /// The helper threads this context's run may split work over, while it
  /// holds them: ColocationSim::run() lends its tenant lanes here for the
  /// SAC updates of its intervals (DESIGN.md §14.7). nullptr — no run in
  /// progress, a pool worker, a node without lanes — runs every region on
  /// the calling thread.
  void set_chunk_team(ChunkTeam* team) { chunk_team_ = team; }
  ChunkTeam* chunk_team() const { return chunk_team_; }

 private:
  MetricsRegistry metrics_;
  std::unique_ptr<TraceRecorder> owned_trace_;  // kPrivate only
  TraceRecorder* trace_;                        // owned or the global recorder
  std::unique_ptr<faults::FaultInjector> faults_;
  bool pool_worker_ = false;
  ChunkTeam* chunk_team_ = nullptr;
};

/// The process-wide recorder (the one obs::trace() returns), exposed so the
/// experiment runner can mirror its enabled state into private contexts and
/// merge their rings back without naming the global accessor inside src/sim.
TraceRecorder& default_trace();

}  // namespace mtat::obs

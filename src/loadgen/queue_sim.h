// Open-loop M/G/k FCFS queueing simulation of the LC server.
//
// This is the mechanism that turns page placement into tail latency. Requests
// arrive Poisson at the pattern's offered rate (open loop: the client never
// backs off, as with YCSB/Mutilate load generation); k server threads serve
// FCFS; each request's service time comes from the LC workload model, i.e.
// from the tiers its touched pages are on at dispatch. When offered load
// approaches 1/E[S], sojourn times diverge — the knee the paper's SLOs are
// defined at (Figure 1) — and when the LC dataset sits in SMem the knee
// arrives at proportionally lower load, which is the entire phenomenon MTAT
// exists to fix.
//
// FCFS with k identical servers needs no explicit queue: track each server's
// next-free time in a min-heap; a request starts at max(arrival, earliest
// free server). Memory stays O(k) even during deep overload.
#pragma once

#include <algorithm>
#include <cstdint>
#include <queue>
#include <vector>

#include "common/rng.h"
#include "loadgen/latency_recorder.h"
#include "loadgen/load_pattern.h"
#include "obs/names.h"
#include "obs/run_context.h"
#include "workloads/lc/lc_workload.h"

namespace mtat {

class QueueSim {
 public:
  QueueSim(LCWorkload& wl, Duration latency_window, std::uint64_t seed)
      : wl_(&wl),
        recorder_(latency_window, wl.config().slo),
        rng_(seed),
        free_at_(static_cast<std::size_t>(wl.config().threads), 0) {
    std::make_heap(free_at_.begin(), free_at_.end(), std::greater<>());
  }

  /// Wire the queue to a run's observability: register queue metrics
  /// (arrivals, completions, backlog watermark) with `ctx`'s registry and
  /// record overload-onset events into its trace. nullptr detaches. The
  /// context must outlive the queue.
  void set_run_context(obs::RunContext* ctx) {
    if (ctx == nullptr) {
      arrivals_c_ = completed_c_ = nullptr;
      backlog_peak_g_ = nullptr;
      trace_ = nullptr;
      return;
    }
    obs::MetricsRegistry& reg = ctx->metrics();
    arrivals_c_ = &reg.counter(obs::names::kQueueArrivals);
    completed_c_ = &reg.counter(obs::names::kQueueCompleted);
    backlog_peak_g_ = &reg.gauge(obs::names::kQueueBacklogPeak);
    trace_ = &ctx->trace();
  }

  /// Install (or replace) the offered-load pattern, (re)starting it at
  /// simulated time `start`. Must be called before run_until.
  void set_pattern(const LoadPattern* pattern, SimTime start) {
    pattern_ = pattern;
    pattern_start_ = start;
    schedule_next_arrival(std::max(start, last_arrival_));
  }

  /// Advance the arrival process through simulated time `until`, serving
  /// every request that arrives before it. The offered rate is re-read from
  /// the pattern at each arrival, so piecewise-constant patterns are exact.
  void run_until(SimTime until) {
    if (pattern_ == nullptr) throw std::logic_error("QueueSim: no pattern installed");
    while (next_arrival_ < until) {
      if (idle_probe_) {  // rate was zero at scheduling time; nothing arrived
        schedule_next_arrival(next_arrival_);
        continue;
      }
      const SimTime arrival = next_arrival_;
      // Earliest-free server; FCFS start time.
      std::pop_heap(free_at_.begin(), free_at_.end(), std::greater<>());
      const SimTime start = std::max(arrival, free_at_.back());
      const Duration service = wl_->serve();
      const SimTime done = start + service;
      free_at_.back() = done;
      std::push_heap(free_at_.begin(), free_at_.end(), std::greater<>());
      recorder_.record(arrival, done - arrival);
      pending_done_.push(done);
      last_arrival_ = arrival;
      if (arrivals_c_ != nullptr) {
        arrivals_c_->inc();
        const auto backlog = static_cast<double>(pending_done_.size());
        backlog_peak_g_->set_max(backlog);
        // Overload edge: an open-loop backlog deeper than many requests per
        // server means sojourn times are diverging; record the onset once
        // per episode so traces show *when* the knee was crossed.
        const double threshold = 64.0 * static_cast<double>(free_at_.size());
        if (!in_overload_ && backlog > threshold) {
          in_overload_ = true;
          if (trace_ != nullptr)
            trace_->instant(obs::names::kEvQueueOverload, obs::names::kCatQueue, "backlog",
                            backlog);
        } else if (in_overload_ && backlog < threshold / 2.0) {
          in_overload_ = false;
        }
      }
      schedule_next_arrival(arrival);
    }
    // Completions are counted at their completion time, not at dispatch —
    // under overload the achieved throughput therefore caps at the service
    // capacity while the backlog grows, as in a real open-loop experiment.
    while (!pending_done_.empty() && pending_done_.top() <= until) {
      pending_done_.pop();
      ++completed_;
      if (completed_c_ != nullptr) completed_c_->inc();
    }
  }

  LatencyRecorder& recorder() { return recorder_; }
  const LatencyRecorder& recorder() const { return recorder_; }
  LCWorkload& workload() { return *wl_; }
  std::uint64_t completed() const { return completed_; }

  /// Requests completed since the last call (per-interval LC throughput).
  std::uint64_t take_interval_completed() {
    const std::uint64_t out = completed_ - interval_mark_;
    interval_mark_ = completed_;
    return out;
  }

  /// Checkpoint codec (common/state_archive.h). The pattern is not state:
  /// every run() installs its own. Pending completions are stored in
  /// ascending order, which is all the min-heap's behaviour depends on.
  template <class Ar>
  void persist(Ar& ar) {
    ar(recorder_, rng_);
    ar.fixed(free_at_);
    ar.check(std::is_heap(free_at_.begin(), free_at_.end(), std::greater<>()),
             "server free times are not a heap");
    std::vector<SimTime> pending;
    if (!ar.loading())
      for (auto q = pending_done_; !q.empty(); q.pop()) pending.push_back(q.top());
    ar(pending);
    if (ar.loading()) {
      pending_done_ = {};
      for (const SimTime t : pending) pending_done_.push(t);
    }
    ar(pattern_start_, last_arrival_, next_arrival_, idle_probe_, completed_, interval_mark_,
       in_overload_);
  }

 private:
  void schedule_next_arrival(SimTime now) {
    const double rate = pattern_->rate_at(now - std::min(now, pattern_start_));
    if (rate <= 0.0) {
      // Idle level: probe forward in 100 ms hops until the pattern resumes.
      next_arrival_ = now + milliseconds(100);
      idle_probe_ = true;
      return;
    }
    next_arrival_ =
        now + static_cast<Duration>(rng_.next_exponential(rate) * 1e9);
    idle_probe_ = false;
  }

  LCWorkload* wl_;
  const LoadPattern* pattern_ = nullptr;
  LatencyRecorder recorder_;
  Rng rng_;
  std::vector<SimTime> free_at_;  // min-heap of server next-free times
  std::priority_queue<SimTime, std::vector<SimTime>, std::greater<>> pending_done_;
  SimTime pattern_start_ = 0;
  SimTime last_arrival_ = 0;
  SimTime next_arrival_ = 0;
  bool idle_probe_ = false;
  std::uint64_t completed_ = 0;
  std::uint64_t interval_mark_ = 0;
  bool in_overload_ = false;
  obs::TraceRecorder* trace_ = nullptr;
  obs::Counter* arrivals_c_ = nullptr;
  obs::Counter* completed_c_ = nullptr;
  obs::Gauge* backlog_peak_g_ = nullptr;
};

}  // namespace mtat

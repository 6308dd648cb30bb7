// Always-on metrics registry for the MTAT simulator.
//
// Every internal signal worth reporting — migration page counts, policy
// decision wall time, queue backlog, RL losses — is a named metric in a
// MetricsRegistry instead of a hand-threaded field on SimResult. Three metric
// kinds cover the simulator's needs:
//
//  * Counter   — monotonically increasing sum (pages moved, wall-us spent).
//                Double-valued so sub-integer quantities (microseconds)
//                accumulate without rounding.
//  * Gauge     — last-written value (contention factor, last RL reward).
//  * Histogram — log-bucketed distribution of unsigned samples, reusing the
//                HDR-style buckets of common/latency_histogram.h (~3%
//                relative error, O(1) record).
//
// Lookup by name is a map walk, so instrumented hot paths resolve their
// metric once (usually at construction) and keep the reference: references
// returned by counter()/gauge()/histogram() are stable for the registry's
// lifetime. The registry itself is cheap enough to leave always-on; tracing
// (obs/trace.h) is the part that is default-off.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>

#include "common/latency_histogram.h"

namespace mtat {
class StateArchive;
}  // namespace mtat

namespace mtat::obs {

class Counter {
 public:
  void inc(double n = 1.0) { v_ += n; }
  double value() const { return v_; }
  void reset() { v_ = 0.0; }
  template <class Ar>
  void persist(Ar& ar) {
    ar(v_);
  }

 private:
  double v_ = 0.0;
};

class Gauge {
 public:
  void set(double v) { v_ = v; }
  /// Keep the running maximum instead of the last write (watermarks).
  void set_max(double v) { v_ = v > v_ ? v : v_; }
  double value() const { return v_; }
  template <class Ar>
  void persist(Ar& ar) {
    ar(v_);
  }

 private:
  double v_ = 0.0;
};

class Histogram {
 public:
  void record(std::uint64_t v) { h_.record(v); }
  void record_n(std::uint64_t v, std::uint64_t count) { h_.record_n(v, count); }
  std::uint64_t count() const { return h_.count(); }
  double mean() const { return h_.mean(); }
  std::uint64_t percentile(double pct) const { return h_.percentile(pct); }
  std::uint64_t min() const { return h_.min(); }
  std::uint64_t max() const { return h_.max(); }
  void reset() { h_.reset(); }
  template <class Ar>
  void persist(Ar& ar) {
    ar(h_);
  }

 private:
  LatencyHistogram h_;
};

/// Named metrics, one namespace per kind. Returned references stay valid for
/// the registry's lifetime (metrics are heap-allocated and never removed).
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// nullptr when no metric of that kind has been registered under `name`.
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  std::size_t size() const { return counters_.size() + gauges_.size() + histograms_.size(); }

  /// One JSON object: {"counters":{..},"gauges":{..},"histograms":{..}}.
  /// Histograms dump count/mean/min/p50/p90/p99/max.
  void write_json(std::ostream& os) const;

  /// Flat CSV: kind,name,field,value — one row per scalar, several per
  /// histogram. Grep-friendly counterpart of the JSON dump.
  void write_csv(std::ostream& os) const;

  /// Checkpoint codec (common/state_archive.h): every metric's value by
  /// name, except the wall-time ones (names::is_wall_time_metric), which
  /// measure the host, not the simulation. Loading creates missing metrics
  /// and leaves unnamed ones as they are.
  void persist(StateArchive& ar);

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace mtat::obs

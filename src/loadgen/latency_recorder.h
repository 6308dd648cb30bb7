// Windowed latency recording for the LC workload.
//
// Maintains (a) fixed-width windows of request sojourn times, the source of
// every "P99 over time" series (Figures 2 and 5), (b) a resettable interval
// histogram PP-M reads for the RL reward's p99 (Eq. 2), and (c) cumulative
// SLO-violation accounting (Table 4).
//
// Only the open window keeps a histogram; a closed window keeps the summary
// its readers use, so a recorder's memory stays flat over a long run.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/latency_histogram.h"
#include "common/units.h"

namespace mtat {

class LatencyRecorder {
 public:
  /// One window's requests, by arrival time.
  struct Window {
    std::uint64_t count = 0;
    double mean = 0.0;  ///< mean sojourn, ns
    Duration p99 = 0;

    template <class Ar>
    void persist(Ar& ar) {
      ar(count, mean, p99);
    }
  };

  LatencyRecorder(Duration window, Duration slo) : window_(window), slo_(slo) {
    if (window == 0) throw std::invalid_argument("LatencyRecorder: zero window");
  }

  /// Record one request completed with the given sojourn time, attributed to
  /// the window of its arrival time `at`. Arrivals may not go back to a
  /// window a later arrival has closed.
  void record(SimTime at, Duration sojourn) {
    const auto w = static_cast<std::size_t>(at / window_);
    if (w < closed_.size()) throw std::logic_error("LatencyRecorder: arrival in a closed window");
    while (closed_.size() < w) {
      closed_.push_back(summary(open_));
      open_.reset();
    }
    open_.record(sojourn);
    interval_.record(sojourn);
    ++total_;
    if (sojourn > slo_) ++violations_;
  }

  /// Histogram since the previous collect_interval() call (resets it).
  LatencyHistogram collect_interval() {
    LatencyHistogram out = interval_;
    interval_.reset();
    return out;
  }

  /// Every window up to the latest arrival's; empty windows report zeros.
  std::vector<Window> windows() const {
    std::vector<Window> out = closed_;
    if (total_ > 0) out.push_back(summary(open_));
    return out;
  }

  /// P99 of each window up to the latest arrival's; empty windows report 0.
  std::vector<Duration> p99_series() const {
    std::vector<Duration> out;
    for (const Window& w : windows()) out.push_back(w.p99);
    return out;
  }

  Duration window_length() const { return window_; }
  Duration slo() const { return slo_; }

  std::uint64_t total_requests() const { return total_; }
  std::uint64_t slo_violations() const { return violations_; }
  /// Fraction of all requests that missed the SLO (Table 4's metric).
  double violation_rate() const {
    return total_ == 0 ? 0.0
                       : static_cast<double>(violations_) / static_cast<double>(total_);
  }

  /// Checkpoint codec (common/state_archive.h): closed-window summaries,
  /// both live histograms (sparse) and the request totals.
  template <class Ar>
  void persist(Ar& ar) {
    ar(closed_, open_, interval_, total_, violations_);
  }

 private:
  static Window summary(const LatencyHistogram& h) {
    return {h.count(), h.mean(), h.percentile(99.0)};
  }

  Duration window_;
  Duration slo_;
  std::vector<Window> closed_;  ///< windows [0, closed_.size())
  LatencyHistogram open_;       ///< window closed_.size()
  LatencyHistogram interval_;
  std::uint64_t total_ = 0;
  std::uint64_t violations_ = 0;
};

}  // namespace mtat

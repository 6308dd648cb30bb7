// HDR-style log-linear latency histogram.
//
// Records nanosecond latencies with bounded (~3%) relative error and answers
// percentile queries (P50/P99/...) in O(#buckets). This is the measurement
// instrument behind every P99 number in the reproduction, standing in for the
// client-side latency measurement of YCSB/Mutilate/TailBench.
//
// Layout: values 0..63 get exact buckets; every octave above that is split
// into 32 linear sub-buckets keyed by the 5 bits below the most-significant
// bit, giving monotone boundaries and O(1) indexing via bit ops.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"

namespace mtat {

class StateArchive;

class LatencyHistogram {
 public:
  static constexpr int kExactValues = 64;       // values [0, 64) are exact
  static constexpr int kBucketsPerOctave = 32;  // linear sub-buckets per octave
  static constexpr int kNumBuckets = kExactValues + (64 - 6) * kBucketsPerOctave;

  LatencyHistogram() : counts_(kNumBuckets, 0) {}

  /// Record one latency observation (in nanoseconds).
  void record(Duration latency_ns) { record_n(latency_ns, 1); }

  /// Record `count` identical observations.
  void record_n(Duration latency_ns, std::uint64_t count) {
    if (count == 0) return;
    counts_[index_for(latency_ns)] += count;
    if (total_ == 0 || latency_ns < min_) min_ = latency_ns;
    if (latency_ns > max_) max_ = latency_ns;
    total_ += count;
    sum_ += latency_ns * count;
  }

  /// Value at the given percentile in [0, 100]. Returns 0 for an empty
  /// histogram. The returned value is the upper edge of the bucket containing
  /// the requested rank, so error is bounded by the bucket width (~3%).
  Duration percentile(double pct) const;

  /// Merge another histogram into this one.
  void merge(const LatencyHistogram& other);

  void reset();

  std::uint64_t count() const { return total_; }
  bool empty() const { return total_ == 0; }
  Duration max() const { return max_; }
  Duration min() const { return total_ ? min_ : 0; }
  double mean() const {
    return total_ ? static_cast<double>(sum_) / static_cast<double>(total_) : 0.0;
  }

  /// Bucket index for a value — exposed for tests.
  static std::size_t index_for(Duration v) {
    if (v < kExactValues) return static_cast<std::size_t>(v);
    const int msb = 63 - __builtin_clzll(v);
    return static_cast<std::size_t>(kExactValues) +
           static_cast<std::size_t>(msb - 6) * kBucketsPerOctave +
           ((v >> (msb - 5)) & (kBucketsPerOctave - 1));
  }

  /// Upper-edge representative value of a bucket — exposed for tests.
  static Duration value_for(std::size_t idx);

  /// Checkpoint codec (common/state_archive.h), sparse: the non-empty
  /// buckets as (index gap, count) pairs, then sum, min and max.
  void persist(StateArchive& ar);

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t sum_ = 0;
  Duration max_ = 0;
  Duration min_ = 0;
};

}  // namespace mtat

#include "common/latency_histogram.h"

#include "common/state_archive.h"

namespace mtat {

Duration LatencyHistogram::value_for(std::size_t idx) {
  if (idx < kExactValues) return static_cast<Duration>(idx);
  const std::size_t rel = idx - kExactValues;
  const int octave = static_cast<int>(rel / kBucketsPerOctave);  // msb - 6
  const std::uint64_t sub = rel % kBucketsPerOctave;
  const int msb = octave + 6;
  const Duration lower = (Duration{1} << msb) + (sub << (msb - 5));
  return lower + (Duration{1} << (msb - 5)) - 1;
}

Duration LatencyHistogram::percentile(double pct) const {
  if (total_ == 0) return 0;
  if (pct <= 0.0) return min_;
  if (pct >= 100.0) return max_;
  // Rank of the requested percentile (1-based, ceil), per HdrHistogram.
  const auto target = static_cast<std::uint64_t>(pct / 100.0 * static_cast<double>(total_) + 0.9999);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (cumulative >= target) {
      const Duration v = value_for(i);
      return v > max_ ? max_ : v;
    }
  }
  return max_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  if (other.total_ > 0) {
    if (total_ == 0 || other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
    total_ += other.total_;
    sum_ += other.sum_;
  }
}

void LatencyHistogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
  sum_ = 0;
  max_ = 0;
  min_ = 0;
}

void LatencyHistogram::persist(StateArchive& ar) {
  std::size_t nonzero = 0;
  for (const std::uint64_t c : counts_) nonzero += c != 0 ? 1 : 0;
  ar.length(nonzero);
  if (ar.loading()) {
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
  }
  std::size_t next = 0;  // first bucket index the next pair may name
  for (std::size_t k = 0; k < nonzero; ++k) {
    std::size_t i = next;
    if (!ar.loading())
      while (counts_[i] == 0) ++i;
    std::size_t gap = i - next;
    ar(gap);
    i = next + gap;
    ar.check(gap < counts_.size() && i < counts_.size(), "latency bucket out of range");
    ar(counts_[i]);
    if (ar.loading()) {
      ar.check(counts_[i] != 0 && total_ + counts_[i] > total_, "bad latency bucket count");
      total_ += counts_[i];
    }
    next = i + 1;
  }
  ar(sum_, min_, max_);
}

}  // namespace mtat

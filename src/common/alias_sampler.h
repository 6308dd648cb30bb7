// Walker alias method: O(1) sampling from an arbitrary discrete distribution.
//
// Used by the BE workload engine to draw telemetry samples from a kernel's
// page-access profile at simulation time (hundreds of thousands of draws per
// simulated second, so O(log n) inversion sampling would dominate the run).
//
// A draw is two RNG calls — a column (next_below) and a coin (next_double) —
// and one table lookup. The table is an array of {prob, alias} columns, so a
// lookup is one cache line. The BE tick draws a chunk at a time with draw():
// every RNG call first, in operator()'s order, then the lookups as one pass
// with the columns prefetched ahead, since over a large profile nearly every
// lookup misses the cache (DESIGN.md §14.5).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/rng.h"

namespace mtat {

class AliasSampler {
 public:
  /// Builds the alias table from (unnormalized, non-negative) weights.
  /// At least one weight must be positive.
  explicit AliasSampler(const std::vector<double>& weights) {
    const std::size_t n = weights.size();
    if (n == 0) throw std::invalid_argument("AliasSampler: empty weights");
    double total = 0.0;
    for (double w : weights) {
      if (w < 0.0) throw std::invalid_argument("AliasSampler: negative weight");
      total += w;
    }
    if (total <= 0.0) throw std::invalid_argument("AliasSampler: all weights zero");
    cols_.resize(n);
    // Scale to mean 1 and split into under/over-full columns.
    std::vector<double> scaled(n);
    std::vector<std::uint32_t> small, large;
    for (std::size_t i = 0; i < n; ++i) {
      scaled[i] = weights[i] * static_cast<double>(n) / total;
      (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
    }
    while (!small.empty() && !large.empty()) {
      const std::uint32_t s = small.back();
      small.pop_back();
      const std::uint32_t l = large.back();
      cols_[s] = {scaled[s], l};
      scaled[l] -= 1.0 - scaled[s];
      if (scaled[l] < 1.0) {
        large.pop_back();
        small.push_back(l);
      }
    }
    for (std::uint32_t i : large) cols_[i].prob = 1.0;
    for (std::uint32_t i : small) cols_[i].prob = 1.0;  // numerical leftovers
    for (std::size_t i = 0; i < n; ++i)
      if (cols_[i].prob >= 1.0) cols_[i].alias = static_cast<std::uint32_t>(i);
  }

  /// Draw one index distributed according to the weights.
  std::uint32_t operator()(Rng& rng) const {
    const auto col = static_cast<std::uint32_t>(rng.next_below(cols_.size()));
    return resolve(col, rng.next_double());
  }

  /// Fill `out` with out.size() draws: the same indices, and the same `rng`
  /// state afterwards, as that many calls of operator(). Each block of
  /// kBlock draws pulls all its RNG values first (column, coin, column, ...),
  /// then resolves the columns with the table lookups prefetched ahead.
  void draw(Rng& rng, std::span<std::uint32_t> out) const {
    double coin[kBlock];
    for (std::size_t base = 0; base < out.size(); base += kBlock) {
      const std::span<std::uint32_t> col = out.subspan(base, std::min(kBlock, out.size() - base));
      for (std::size_t i = 0; i < col.size(); ++i) {
        col[i] = static_cast<std::uint32_t>(rng.next_below(cols_.size()));
        coin[i] = rng.next_double();
      }
      for (std::size_t i = 0; i < col.size(); ++i) {
        if (col.size() - i > kAhead) __builtin_prefetch(&cols_[col[i + kAhead]]);
        col[i] = resolve(col[i], coin[i]);
      }
    }
  }

  std::size_t size() const { return cols_.size(); }

 private:
  static constexpr std::size_t kBlock = 256;  ///< draws whose coins draw() holds at once
  static constexpr std::size_t kAhead = 16;   ///< prefetch distance, in draws

  struct Column {
    double prob = 0.0;
    std::uint32_t alias = 0;
  };

  /// `col` if the coin lands under the column's probability, else its
  /// alias. In the BE tables 78-100% of columns have 0 < prob < 1, so a
  /// `coin < prob ? col : alias` branch mispredicts on ~22-34% of draws (GCC
  /// keeps it a jump). The mask select cuts draw()'s cost per draw by a third
  /// to a half (DESIGN.md §14.6).
  std::uint32_t resolve(std::uint32_t col, double coin) const {
    const Column& c = cols_[col];
    const std::uint32_t keep = -static_cast<std::uint32_t>(coin < c.prob);
    return (col & keep) | (c.alias & ~keep);
  }

  std::vector<Column> cols_;
};

}  // namespace mtat

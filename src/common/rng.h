// Deterministic pseudo-random number generation and the distributions used by
// the workload models and search algorithms.
//
// We use xoshiro256** (Blackman & Vigna) rather than std::mt19937 because it is
// faster, has a tiny state, and gives us bit-for-bit reproducible experiments
// across standard libraries. Every stochastic component in the simulator takes
// an explicit Rng (or a seed) — there is no global RNG.
#pragma once

#include <cmath>
#include <cstdint>

namespace mtat {

/// xoshiro256** 1.0. Public-domain algorithm; all-zero state is invalid, so the
/// constructor seeds via splitmix64 which never produces it.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) {
    // splitmix64 seeding, as recommended by the xoshiro authors.
    std::uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9E3779B97F4A7C15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      s = z ^ (z >> 31);
    }
  }

  /// Uniform 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound). bound must be > 0. Uses Lemire's
  /// multiply-shift rejection method (unbiased).
  std::uint64_t next_below(std::uint64_t bound) {
    // __uint128_t is supported by GCC/Clang on all 64-bit targets we build for.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (lo < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_between(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(next_below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Bernoulli trial with probability p of returning true.
  bool next_bool(double p) { return next_double() < p; }

  /// Standard normal via Box–Muller (no cached spare; simplicity over speed).
  double next_gaussian() {
    double u1 = next_double();
    while (u1 <= 1e-300) u1 = next_double();
    const double u2 = next_double();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

  /// Exponentially distributed value with the given rate (mean 1/rate).
  double next_exponential(double rate) {
    double u = next_double();
    while (u <= 1e-300) u = next_double();
    return -std::log(u) / rate;
  }

  /// Split off an independently-seeded child generator (for per-component RNGs).
  Rng split() { return Rng(next_u64() ^ 0xA5A5A5A5A5A5A5A5ull); }

  /// The generator's cursor, for checkpoints (common/state_archive.h).
  template <class Ar>
  void persist(Ar& ar) {
    ar(state_);
    ar.check((state_[0] | state_[1] | state_[2] | state_[3]) != 0, "all-zero rng state");
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  std::uint64_t state_[4];
};

/// Zipfian generator over [0, n) with parameter theta, using the
/// Gray et al. "quickly generating billion-record synthetic databases"
/// method (the same generator YCSB uses). theta in (0, 1); theta -> 0 is
/// uniform-ish, 0.99 is the YCSB default "zipfian".
class ZipfianGenerator {
 public:
  ZipfianGenerator(std::uint64_t n, double theta);

  std::uint64_t operator()(Rng& rng) const;

  std::uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  static double zeta(std::uint64_t n, double theta);

  std::uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
};

/// Scrambled Zipfian: Zipf ranks hashed over the keyspace so the "hot" items
/// are scattered rather than clustered at low ids (matches YCSB's
/// ScrambledZipfianGenerator, which matters for page-locality realism).
class ScrambledZipfianGenerator {
 public:
  ScrambledZipfianGenerator(std::uint64_t n, double theta) : zipf_(n, theta), n_(n) {}

  std::uint64_t operator()(Rng& rng) const {
    const std::uint64_t rank = zipf_(rng);
    return fnv1a64(rank) % n_;
  }

 private:
  static std::uint64_t fnv1a64(std::uint64_t v) {
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= 0x100000001B3ull;
    }
    return h;
  }

  ZipfianGenerator zipf_;
  std::uint64_t n_;
};

}  // namespace mtat

// Best-effort workload engine: profile-driven throughput model + telemetry.
//
// Each BEWorkload owns an experiment-scale address space whose pages carry
// the access-probability profile extracted from its real kernel. Per tick it
// (a) computes the work rate implied by current page placement — cycles plus
// misses x expected tier latency, the expectation maintained incrementally
// via a TieredMemory migration listener — and (b) emits the PEBS-like sampled
// accesses that placement policies actually observe. BE workloads thus look
// to a policy exactly like the paper's: steady, high-frequency access streams
// that dwarf the LC workload's per-page rates.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/alias_sampler.h"
#include "common/rng.h"
#include "common/units.h"
#include "mem/address_space.h"
#include "mem/tiered_memory.h"
#include "workloads/be/page_profile.h"

namespace mtat {

/// One double per tier, indexed by TierId; fixed size, so the tick never allocates.
using TierValues = std::array<double, kMaxTiers>;

/// Remainder form of a split over `n` tiers: w[0..n-2] are explicit and the
/// slowest tier holds 1 − Σ_{t<n−1} w_t. Every BE cost and tier-demand split
/// uses it, so at n = 2 it is w·x_f + (1−w)·x_s operation for operation.
inline double slowest_share(const TierValues& w, std::size_t n) {
  double placed = 0.0;
  for (std::size_t t = 0; t + 1 < n; ++t) placed += w[t];
  return 1.0 - placed;
}

/// A BE tenant's access model in the form its tick runs it: the misses per
/// unit of work, and the tables derived from its stretched page profile.
/// Copies share the tables, which are immutable.
struct BEProfile {
  /// Everything derived from a stretched profile's weights. A pure function
  /// of them, so one build serves every tenant on every node that runs the
  /// profile (be_suite.cc memoizes it per workload, scale and footprint).
  struct Tables {
    explicit Tables(const PageProfile& stretched);
    std::vector<double> weight;       ///< per-virtual-page access probability
    AliasSampler alias;               ///< draws virtual pages by weight
    std::vector<double> best_prefix;  ///< PageProfile::best_placement_prefix()
  };

  /// The one builder: derives the tables of `stretched`. Configs made
  /// outside be_suite.cc (tests, traces) use it directly.
  static BEProfile of(const PageProfile& stretched) {
    return {stretched.accesses_per_iteration, std::make_shared<const Tables>(stretched)};
  }

  /// Modelled misses per unit of work (PageProfile::accesses_per_iteration).
  double accesses_per_iteration = 0.0;
  std::shared_ptr<const Tables> tables;

  std::uint64_t num_pages() const { return tables == nullptr ? 0 : tables->weight.size(); }
};

struct BEConfig {
  std::string name;
  std::string description;    ///< Table 2 text
  Bytes rss = 0;              ///< experiment-scale footprint
  double cpu_ns_per_iter = 0; ///< non-memory cost per work unit, per core
  int cores = 4;              ///< cores pinned to this workload (×throughput)
  /// Memory-level parallelism: how many of the workload's misses overlap.
  /// Divides the effective stall per access; this is what makes, e.g.,
  /// XSBench's independent lookups far more access-intensive per second (and
  /// hence more competitive under frequency-based tiering) than BFS's
  /// dependent pointer chases at the same core count.
  double mlp = 1.0;
  /// Time the workload loses per migration of one of its own pages (page-copy
  /// interference plus, for fault-driven policies like TPP, the hint-fault
  /// stall on the access path). Charged against the tick's compute time, so
  /// perpetual churn — TPP's watermark/refill cycle — costs real throughput.
  Duration migration_stall = 3000;  // ns per migrated page
  BEProfile profile;          ///< stretched to bytes_to_pages(rss) pages
  std::uint64_t sample_period = 1024;  ///< PEBS-like sampling divisor
};

class BEWorkload : public MigrationListener {
 public:
  /// Samples a tick draws and hands to the sampler per call.
  static constexpr std::size_t kSampleChunk = 256;

  /// `sampler` (may be null) receives the sampled access stream.
  /// The workload registers itself as a migration listener for its own pages
  /// on `mem`, so it must not be moved and must outlive any further use of
  /// `mem`'s placement primitives. `id` must own no other pages of `mem`.
  BEWorkload(TieredMemory& mem, WorkloadId id, BEConfig cfg, AllocPolicy alloc,
             AccessObserver* sampler, std::uint64_t seed);

  BEWorkload(const BEWorkload&) = delete;
  BEWorkload& operator=(const BEWorkload&) = delete;

  /// Advance the workload by `dt`: accrue iterations at the placement-implied
  /// rate and emit sampled telemetry. The same as prepare(dt), then emit().
  void tick(Duration dt) {
    prepare(dt);
    emit();
  }

  /// The first half of a tick: charge the migration stall, accrue iterations
  /// at the placement-implied rate and set aside the samples they produce
  /// (none without a sampler).
  void prepare(Duration dt);

  /// The second half: draw the samples prepare() set aside and hand them to
  /// the sampler. Reads no placement state and writes only this tenant's RNG
  /// and what the sampler keeps for this workload, so tenant lanes run it
  /// concurrently with other tenants (DESIGN.md §14.7).
  void emit();

  /// Samples the last prepare() set aside that emit() has not drawn yet.
  std::uint64_t pending_samples() const { return pending_samples_; }

  /// Instantaneous work rate (iterations/s) at the current placement.
  double current_rate() const { return live_rate(tier_weight_); }

  /// Work rate if the `fmem_pages` hottest pages were in FMem (the rest split as
  /// split_at_hit does): the offline-profiling curve PP-M consumes (§3.2.2).
  double rate_at_pages(std::uint64_t fmem_pages) const {
    return live_rate(split_at_hit(hit_fraction_at_pages(fmem_pages)));
  }

  /// Rate with the entire footprint in FMem: Perf_full of Eq. 3.
  double perf_full() const { return rate_at_pages(space_->num_pages()); }

  /// Fraction of the access distribution covered by the `fmem_pages` hottest
  /// pages (the ideal-placement hit curve).
  double hit_fraction_at_pages(std::uint64_t fmem_pages) const {
    return cfg_.profile.tables->best_prefix[std::min<std::uint64_t>(fmem_pages,
                                                                   space_->num_pages())];
  }

  /// Work rate with access split `w` (remainder form) over `n` tiers at
  /// per-access latencies `lat`: the one BE cost kernel, also used to score
  /// hypothetical placements under hypothetical contention.
  double rate_under(const TierValues& w, const TierValues& lat, std::size_t n) const {
    double expected = 0.0;
    for (std::size_t t = 0; t + 1 < n; ++t) expected += w[t] * lat[t];
    expected += slowest_share(w, n) * lat[n - 1];
    const double ns_per_iter =
        cfg_.cpu_ns_per_iter + cfg_.profile.accesses_per_iteration * expected / cfg_.mlp;
    return static_cast<double>(cfg_.cores) * 1e9 / ns_per_iter;
  }

  /// The two-tier case of the kernel: `fmem_weight` in FMem, the rest in SMem.
  double rate_under(double fmem_weight, double lat_fmem_ns, double lat_smem_ns) const {
    return rate_under(TierValues{fmem_weight}, TierValues{lat_fmem_ns, lat_smem_ns}, 2);
  }

  /// The split with `hit` of the access mass in tier 0; 1 − hit is spread over
  /// tiers 1..n−1 by this workload's current page residency there, or all in
  /// tier 1 (where a demotion lands) when it has no page below tier 0.
  TierValues split_at_hit(double hit) const;

  /// Iterations accrued since the last call (per-interval throughput).
  double take_interval_iterations();
  double total_iterations() const { return total_iterations_; }

  /// Fraction of the access distribution currently resident in the fastest
  /// tier.
  double fmem_weight() const { return tier_weight_[kFastestTier]; }

  /// Fraction of the access distribution resident in each tier.
  const TierValues& tier_weights() const { return tier_weight_; }

  WorkloadId id() const { return id_; }
  AddressSpace& space() { return *space_; }
  const BEConfig& config() const { return cfg_; }

  /// Checkpoint codec (common/state_archive.h). The per-tier access weights
  /// are kept incrementally, so they are stored as they are, not recomputed.
  template <class Ar>
  void persist(Ar& ar) {
    ar(*space_, rng_, tier_weight_, total_iterations_, interval_iterations_,
       migrations_pending_, sample_carry_);
  }

 private:
  /// rate_under at every tier's live (contended) latency.
  double live_rate(const TierValues& w) const;
  /// Maintains the incremental per-tier resident weight sums. Registered for
  /// this workload's pages only, so `p` is always one of them.
  void on_migration(PageId p, TierId from, TierId to) override;

  TieredMemory* mem_;
  WorkloadId id_;
  BEConfig cfg_;
  std::unique_ptr<AddressSpace> space_;
  AccessObserver* sampler_;
  Rng rng_;
  PageId first_page_ = 0;
  /// tier_weight_[t] = summed access probability of this workload's pages
  /// currently resident in tier t (so the entries sum to ~1).
  TierValues tier_weight_{};
  double total_iterations_ = 0.0;
  double interval_iterations_ = 0.0;
  std::uint64_t migrations_pending_ = 0;
  double sample_carry_ = 0.0;
  std::uint64_t pending_samples_ = 0;  // prepare() to emit(); 0 between ticks
};

}  // namespace mtat

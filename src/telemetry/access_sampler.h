// PEBS-like sampled access monitor.
//
// The paper's PP-E samples MEM_LOAD_L3_MISS_RETIRED.{LOCAL,REMOTE}_DRAM and
// MEM_INST_RETIRED.ALL_STORES to classify each sampled access as FMem or SMem
// and accumulate page-level counts. Here the AddressSpaces and BE tenants
// deliver a 1-in-N sample of modelled accesses in batches; AccessSampler
// classifies each sample by the page's current tier, maintains the
// per-workload interval counters PP-M's RL state is built from (FMem Access
// Ratio, Memory Access Count), and fans the batch out to the registered
// PageHotness histograms and per-sample callbacks.
//
// Ingest is consumer by consumer, not sample by sample: one pass over the
// batch draws the fault drop/corrupt decisions in sample order and counts
// tiers, then each sink and each callback takes the surviving samples in
// order. Nothing migrates during ingest and no consumer reads another's
// state, so every consumer ends in the state the sample-by-sample loop
// left it in (DESIGN.md §14.5).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/types.h"
#include "faults/fault_injector.h"
#include "mem/address_space.h"
#include "obs/names.h"
#include "obs/run_context.h"
#include "telemetry/page_hotness.h"

namespace mtat {

/// Per-workload counters accumulated over one observation interval.
struct IntervalCounters {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  /// Sampled accesses by the tier that served them, so N-tier policies see
  /// where in the cascade the misses actually land.
  std::array<std::uint64_t, kMaxTiers> tier_accesses{};

  /// Sampled accesses resolved in the fastest tier.
  std::uint64_t fmem_accesses() const { return tier_accesses[kFastestTier]; }
  /// Sampled accesses resolved in any slower tier.
  std::uint64_t smem_accesses() const { return total() - fmem_accesses(); }
  std::uint64_t total() const {
    std::uint64_t t = 0;
    for (const std::uint64_t n : tier_accesses) t += n;
    return t;
  }

  /// The paper's "FMem Access Ratio": share of accesses served by FMem.
  /// Returns 1.0 for an idle interval (no accesses means no SMem misses).
  double fmem_access_ratio() const {
    const std::uint64_t t = total();
    return t == 0 ? 1.0 : static_cast<double>(fmem_accesses()) / static_cast<double>(t);
  }

  template <class Ar>
  void persist(Ar& ar) {
    ar(reads, writes, tier_accesses);
  }
};

class AccessSampler : public AccessObserver {
 public:
  /// `sample_period` is the N of the AddressSpaces feeding this sampler; it is
  /// used only to scale sampled counts back to estimated true access counts.
  explicit AccessSampler(const TieredMemory& mem, std::uint64_t sample_period = 1)
      : mem_(&mem), sample_period_(sample_period == 0 ? 1 : sample_period) {}

  /// One sample: a batch of one.
  void on_sampled_access(WorkloadId w, PageId p, AccessKind kind) { on_samples(w, {&p, 1}, kind); }

  void on_samples(WorkloadId w, std::span<PageId> pages, AccessKind kind) override {
    if (faults_ != nullptr) pages = apply_faults(w, pages);
    if (pages.empty()) return;
    if (current_.size() <= w) grow_rows(w);
    // Tiers are counted locally and added once: rows of concurrent tenant
    // lanes share cache lines, and integer sums do not depend on grouping.
    std::array<std::uint64_t, kMaxTiers> tiers{};
    for (std::size_t i = 0; i < pages.size(); ++i) {
      if (pages.size() - i > kAhead) mem_->prefetch(pages[i + kAhead]);
      ++tiers[mem_->tier_of(pages[i])];
    }
    IntervalCounters& c = current_[w];
    for (std::size_t t = 0; t < tiers.size(); ++t) c.tier_accesses[t] += tiers[t];
    (kind == AccessKind::kRead ? c.reads : c.writes) += pages.size();
    for (PageHotness* h : sinks_) h->record_batch(w, pages);
    for (const auto& cb : callbacks_)
      for (const PageId p : pages) cb(w, p, kind);
  }

  /// True when every consumer of a sample belongs to the sample's own
  /// workload: no fault injector (its draws are one stream across
  /// workloads), no per-sample callback, and every sink filtered to one
  /// workload. Then ingests of different workloads touch disjoint state and
  /// may run concurrently, once prepare_ingest() has run for each
  /// (DESIGN.md §14.7).
  bool per_workload_ingest() const {
    if (faults_ != nullptr || !callbacks_.empty()) return false;
    for (const PageHotness* h : sinks_)
      if (h->workload_filter() == kInvalidWorkload) return false;
    return true;
  }

  /// Readies a concurrent ingest of `n` samples of workload `w` that
  /// allocates nothing: creates the counter row the first sample would
  /// (none for n == 0, so the rows stay what the serial ingest leaves), and
  /// reserves room for `n` more pages in every bin of `w`'s sinks.
  void prepare_ingest(WorkloadId w, std::size_t n) {
    if (n == 0) return;
    if (current_.size() <= w) grow_rows(w);
    for (PageHotness* h : sinks_)
      if (h->workload_filter() == w) h->reserve_headroom(n);
  }

  /// Attach a fault injector (telemetry sample loss / corruption). Registers
  /// the fault counters lazily — a sampler without faults touches neither the
  /// registry nor the injector on the sample path.
  void set_faults(faults::FaultInjector* inj, obs::RunContext& ctx) {
    faults_ = inj;
    if (faults_ != nullptr) {
      dropped_c_ = &ctx.metrics().counter(obs::names::kFaultSamplesDropped);
      corrupted_c_ = &ctx.metrics().counter(obs::names::kFaultSamplesCorrupted);
    }
  }

  /// Attach a histogram that should receive every sample this monitor sees.
  void add_sink(PageHotness* h) { sinks_.push_back(h); }

  /// The attached histograms, in registration order — read-only, for state
  /// fingerprinting (ColocationSim::fingerprint()).
  const std::vector<PageHotness*>& sinks() const { return sinks_; }

  /// Attach an arbitrary per-sample callback (e.g. TPP's fault shadowing).
  using SampleCallback = std::function<void(WorkloadId, PageId, AccessKind)>;
  void add_callback(SampleCallback cb) { callbacks_.push_back(std::move(cb)); }

  /// The attached callbacks, in registration order — read-only, for the
  /// differential ingest test (tests/telemetry_batch_equivalence_test.cc).
  const std::vector<SampleCallback>& callbacks() const { return callbacks_; }

  /// Read-and-reset the interval counters for workload `w`. Called once per
  /// observation interval by the policy layer.
  IntervalCounters collect(WorkloadId w) {
    if (current_.size() <= w) return IntervalCounters{};
    IntervalCounters out = current_[w];
    accumulate(cumulative_[w], out);
    current_[w] = IntervalCounters{};
    return out;
  }

  /// Peek at the counters without resetting.
  IntervalCounters peek(WorkloadId w) const {
    return current_.size() <= w ? IntervalCounters{} : current_[w];
  }

  const IntervalCounters& cumulative(WorkloadId w) const {
    static const IntervalCounters kEmpty{};
    return cumulative_.size() <= w ? kEmpty : cumulative_[w];
  }

  /// Scale a sampled count to an estimate of the true access count.
  std::uint64_t to_true_count(std::uint64_t sampled) const { return sampled * sample_period_; }

  std::uint64_t sample_period() const { return sample_period_; }

  /// Checkpoint codec (common/state_archive.h): the open and cumulative
  /// counters of every workload. Sinks and callbacks are wiring, not state.
  template <class Ar>
  void persist(Ar& ar) {
    ar(current_, cumulative_);
    ar.check(current_.size() == cumulative_.size(), "sampler counter tables differ in length");
  }

 private:
  static constexpr std::size_t kAhead = 8;  ///< page-info prefetch distance, in samples

  /// The telemetry faults, in sample order: drops a sample (compacting the
  /// survivors to the front) or misattributes it to a uniformly random page
  /// of the same workload — hotness and tier classification both go wrong,
  /// which is the PEBS-misattribution failure mode. Returns the survivors.
  std::span<PageId> apply_faults(WorkloadId w, std::span<PageId> pages) {
    std::size_t kept = 0;
    for (const PageId p : pages) {
      if (faults_->drop_sample()) {
        dropped_c_->inc();
        continue;
      }
      PageId& out = pages[kept++];
      out = p;
      if (faults_->corrupt_sample()) {
        const std::vector<PageId>& owned = mem_->pages_of(w);
        if (!owned.empty()) {
          out = owned[faults_->pick(owned.size())];
          corrupted_c_->inc();
        }
      }
    }
    return pages.first(kept);
  }

  void grow_rows(WorkloadId w) {
    current_.resize(static_cast<std::size_t>(w) + 1);
    cumulative_.resize(static_cast<std::size_t>(w) + 1);
  }

  static void accumulate(IntervalCounters& into, const IntervalCounters& from) {
    into.reads += from.reads;
    into.writes += from.writes;
    for (std::size_t t = 0; t < from.tier_accesses.size(); ++t)
      into.tier_accesses[t] += from.tier_accesses[t];
  }

  const TieredMemory* mem_;
  faults::FaultInjector* faults_ = nullptr;
  obs::Counter* dropped_c_ = nullptr;    // set iff faults_ != nullptr
  obs::Counter* corrupted_c_ = nullptr;  // set iff faults_ != nullptr
  std::uint64_t sample_period_;
  std::vector<IntervalCounters> current_;
  std::vector<IntervalCounters> cumulative_;
  std::vector<PageHotness*> sinks_;
  std::vector<SampleCallback> callbacks_;
};

}  // namespace mtat

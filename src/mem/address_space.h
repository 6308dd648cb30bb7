// Per-workload virtual address space over the tiered-memory substrate.
//
// Workload engines (the KV stores, graph kernels, XSBench) address their data
// as byte offsets in [0, size). AddressSpace maps those offsets to simulated
// page frames, charges the tier-dependent latency for each modelled memory
// access, and forwards a PEBS-like 1-in-N sample of accesses to an observer
// (the telemetry module). Workload models call access() once per modelled
// LLC miss — the unit the paper's PEBS events count — not once per load.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/types.h"
#include "common/units.h"
#include "mem/tiered_memory.h"

namespace mtat {

/// Receives sampled page accesses. Implemented by telemetry::AccessSampler.
class AccessObserver {
 public:
  virtual ~AccessObserver() = default;
  /// A batch of samples of workload `w`, all of kind `kind`, in stream order.
  /// `pages` is the caller's scratch: the observer may overwrite it.
  virtual void on_samples(WorkloadId w, std::span<PageId> pages, AccessKind kind) = 0;
};

class AddressSpace {
 public:
  /// Allocates ceil(size / page) pages for `w` under `policy`. sample_period
  /// of N reports every Nth access to the observer (N=1 reports all), which
  /// emulates PEBS' sampled — not exhaustive — view of the access stream.
  AddressSpace(TieredMemory& mem, WorkloadId w, Bytes size, AllocPolicy policy,
               std::uint64_t sample_period = 1)
      : mem_(&mem),
        workload_(w),
        size_(size),
        sample_period_(sample_period == 0 ? 1 : sample_period) {
    if (size == 0) throw std::invalid_argument("AddressSpace: zero size");
    pages_ = mem.allocate(w, bytes_to_pages(size), policy);
  }

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  /// One modelled memory access (LLC miss) at byte offset `vaddr`.
  /// Returns the charged latency.
  Duration access(Bytes vaddr, AccessKind kind = AccessKind::kRead) {
    return access_page(vaddr / kPageSize, kind);
  }

  /// One modelled access to virtual page `vpage`.
  Duration access_page(std::uint64_t vpage, AccessKind kind = AccessKind::kRead) {
    return access_page_n(vpage, 1, kind);
  }

  /// `n` modelled misses landing on virtual page `vpage` (e.g. a record read
  /// spanning n cache-line misses within one page). Charges n× the tier
  /// latency and emits the same number of telemetry samples a stream of n
  /// individual calls would, in O(1).
  Duration access_page_n(std::uint64_t vpage, std::uint64_t n, AccessKind kind = AccessKind::kRead) {
    const PageId p = page_at_index(vpage);
    accesses_ += n;
    // Samples fall on every access whose running count is a multiple of the
    // period; most calls end before the next one and divide nothing.
    std::uint64_t samples = 0;
    if (n < to_sample_) {
      to_sample_ -= n;
    } else {
      const std::uint64_t past = n - to_sample_;  // accesses after the first sample
      samples = 1 + past / sample_period_;
      to_sample_ = sample_period_ - past % sample_period_;
    }
    if (observer_ != nullptr) {
      PageId batch[kBatch];
      while (samples > 0) {
        const std::size_t k = std::min<std::uint64_t>(samples, kBatch);
        std::fill_n(batch, k, p);
        observer_->on_samples(workload_, {batch, k}, kind);
        samples -= k;
      }
    }
    return mem_->access_latency(p) * n;
  }

  /// Touch every page overlapping [vaddr, vaddr+len); returns summed latency.
  /// Used for record reads that span pages (e.g. 4 KiB memcached values).
  Duration access_range(Bytes vaddr, Bytes len, AccessKind kind = AccessKind::kRead) {
    Duration total = 0;
    const std::uint64_t first = vaddr / kPageSize;
    const std::uint64_t last = (vaddr + (len == 0 ? 0 : len - 1)) / kPageSize;
    for (std::uint64_t vp = first; vp <= last; ++vp) total += access_page(vp, kind);
    return total;
  }

  PageId page_at(Bytes vaddr) const { return page_at_index(vaddr / kPageSize); }
  PageId page_at_index(std::uint64_t vpage) const {
    if (vpage >= pages_.size()) throw std::out_of_range("AddressSpace: address beyond size");
    return pages_[vpage];
  }

  void set_observer(AccessObserver* obs) { observer_ = obs; }

  WorkloadId workload() const { return workload_; }
  Bytes size() const { return size_; }
  std::uint64_t num_pages() const { return pages_.size(); }
  std::uint64_t total_accesses() const { return accesses_; }
  const std::vector<PageId>& pages() const { return pages_; }
  TieredMemory& memory() const { return *mem_; }

  /// Checkpoint codec (common/state_archive.h): the access count that
  /// phases the 1-in-N sampling.
  template <class Ar>
  void persist(Ar& ar) {
    ar(accesses_);
    if (ar.loading()) to_sample_ = sample_period_ - accesses_ % sample_period_;
  }

 private:
  static constexpr std::size_t kBatch = 64;  ///< samples per observer call

  TieredMemory* mem_;
  WorkloadId workload_;
  Bytes size_;
  std::uint64_t sample_period_;
  std::vector<PageId> pages_;
  AccessObserver* observer_ = nullptr;
  std::uint64_t accesses_ = 0;
  std::uint64_t to_sample_ = sample_period_;  ///< accesses until the next sample, 1..period
};

}  // namespace mtat

// Access-trace capture and replay: bring-your-own-workload support.
//
// A trace is the sequence of (virtual page, read/write) samples a workload
// produced — exactly what a PEBS capture of a real application yields after
// address-to-page truncation. Traces round-trip through a compact binary
// format; a recorded (or externally converted) trace becomes a PageProfile,
// which plugs straight into BEWorkload: the simulated tenant then presents
// the real application's access distribution to every policy under test.
//
//   TraceRecorder rec(space);          // attach to any simulated tenant
//   ... run the workload ...
//   write_trace("app.trace", rec.take());
//   BEConfig cfg = ...;
//   cfg.profile = BEProfile::of(profile_from_trace(read_trace("app.trace"), apa));
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mem/address_space.h"
#include "workloads/be/page_profile.h"

namespace mtat {

struct TraceSample {
  std::uint32_t vpage = 0;
  AccessKind kind = AccessKind::kRead;
};

/// Serialize samples to `path` (binary: magic, footprint, count, samples).
/// `footprint_pages` records the traced address-space size so replay can
/// validate page indices.
void write_trace(const std::string& path, std::uint64_t footprint_pages,
                 const std::vector<TraceSample>& samples);

struct Trace {
  std::uint64_t footprint_pages = 0;
  std::vector<TraceSample> samples;
};

/// Parse a trace file; throws std::runtime_error on malformed input.
Trace read_trace(const std::string& path);

/// Collapse a trace into a page-access profile for BEWorkload.
/// `accesses_per_iteration` defines the trace's unit of work (e.g. samples
/// per request of the traced application).
PageProfile profile_from_trace(const Trace& trace, double accesses_per_iteration);

/// AccessObserver that captures a tenant's sampled accesses as trace samples
/// (page ids are translated to offsets within the given space).
class TraceRecorder : public AccessObserver {
 public:
  explicit TraceRecorder(const AddressSpace& space)
      : workload_(space.workload()),
        first_page_(space.pages().front()),
        footprint_(space.num_pages()) {}

  void on_samples(WorkloadId w, std::span<PageId> pages, AccessKind kind) override {
    if (w != workload_) return;
    for (const PageId p : pages)
      if (p >= first_page_ && p < first_page_ + footprint_)
        samples_.push_back(TraceSample{static_cast<std::uint32_t>(p - first_page_), kind});
  }

  /// The captured samples (moved out; the recorder resets).
  std::vector<TraceSample> take() { return std::move(samples_); }
  std::size_t size() const { return samples_.size(); }
  std::uint64_t footprint_pages() const { return footprint_; }

 private:
  WorkloadId workload_;
  PageId first_page_;
  std::uint64_t footprint_;
  std::vector<TraceSample> samples_;
};

}  // namespace mtat

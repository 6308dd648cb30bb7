#include "workloads/be/page_profile.h"

#include <algorithm>
#include <stdexcept>

#include "mem/tiered_memory.h"

namespace mtat {
namespace {

/// Counts every access per page of a single scratch workload.
class CountingObserver : public AccessObserver {
 public:
  explicit CountingObserver(std::size_t pages) : counts_(pages, 0) {}
  void on_samples(WorkloadId, std::span<PageId> pages, AccessKind) override {
    for (const PageId p : pages) counts_[p]++;
  }
  const std::vector<std::uint64_t>& counts() const { return counts_; }

 private:
  std::vector<std::uint64_t> counts_;
};

}  // namespace

PageProfile extract_profile(Bytes footprint,
                            const std::function<std::uint64_t(AddressSpace&)>& body) {
  const std::uint64_t pages = bytes_to_pages(footprint);
  // Scratch substrate: all pages in the slower tier of a two-tier topology —
  // profiling only needs stable page ids, not realistic placement.
  TieredMemory scratch(TieredMemory::Config::two_tier(/*fmem_pages=*/0, pages));
  AddressSpace space(scratch, /*w=*/0, footprint, kTierOnly(kFastestTier + 1),
                     /*sample_period=*/1);
  CountingObserver counter(pages);
  space.set_observer(&counter);

  const std::uint64_t iterations = body(space);
  if (iterations == 0) throw std::runtime_error("extract_profile: kernel reported zero work");

  PageProfile out;
  out.weight.resize(pages);
  std::uint64_t total = 0;
  for (std::uint64_t c : counter.counts()) total += c;
  if (total == 0) throw std::runtime_error("extract_profile: kernel touched no memory");
  for (std::uint64_t i = 0; i < pages; ++i)
    out.weight[i] = static_cast<double>(counter.counts()[i]) / static_cast<double>(total);
  out.accesses_per_iteration = static_cast<double>(total) / static_cast<double>(iterations);
  return out;
}

PageProfile PageProfile::stretched_to(std::uint64_t target_pages) const {
  if (target_pages == 0) throw std::invalid_argument("PageProfile: target_pages must be > 0");
  const std::uint64_t src = num_pages();
  if (target_pages < src)
    throw std::invalid_argument("PageProfile: stretched_to cannot shrink the footprint");
  PageProfile out;
  out.accesses_per_iteration = accesses_per_iteration;
  out.weight.resize(target_pages, 0.0);
  // Each source page's weight is split evenly over the target pages that map
  // to it, so the stretched distribution integrates to the same region mass.
  std::vector<double> split(src, 0.0);
  for (std::uint64_t j = 0; j < target_pages; ++j) split[j * src / target_pages] += 1.0;
  for (std::uint64_t j = 0; j < target_pages; ++j) {
    const std::uint64_t i = j * src / target_pages;
    out.weight[j] = weight[i] / split[i];
  }
  return out;
}

std::vector<double> PageProfile::best_placement_prefix() const {
  std::vector<double> sorted = weight;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  std::vector<double> prefix(sorted.size() + 1, 0.0);
  for (std::size_t i = 0; i < sorted.size(); ++i) prefix[i + 1] = prefix[i] + sorted[i];
  if (!prefix.empty()) prefix.back() = std::min(prefix.back(), 1.0);
  return prefix;
}

}  // namespace mtat

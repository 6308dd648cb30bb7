#include "workloads/be/be_workload.h"

#include <algorithm>
#include <span>
#include <stdexcept>

namespace mtat {

BEProfile::Tables::Tables(const PageProfile& stretched)
    : weight(stretched.weight), alias(weight), best_prefix(stretched.best_placement_prefix()) {}

BEWorkload::BEWorkload(TieredMemory& mem, WorkloadId id, BEConfig cfg, AllocPolicy alloc,
                       AccessObserver* sampler, std::uint64_t seed)
    : mem_(&mem), id_(id), cfg_(std::move(cfg)), sampler_(sampler), rng_(seed) {
  if (cfg_.rss == 0) throw std::invalid_argument("BEWorkload: zero rss");
  if (cfg_.profile.num_pages() != bytes_to_pages(cfg_.rss))
    throw std::invalid_argument("BEWorkload: profile not stretched to rss");
  if (cfg_.cpu_ns_per_iter <= 0 || cfg_.cores <= 0 || cfg_.mlp <= 0)
    throw std::invalid_argument("BEWorkload: bad cpu/core/mlp config");
  space_ = std::make_unique<AddressSpace>(mem, id, cfg_.rss, alloc, cfg_.sample_period);

  // Pages are allocated in one contiguous id run (the allocator appends), so
  // PageId -> vpage is a subtraction; assert that assumption holds.
  const auto& pages = space_->pages();
  first_page_ = pages.front();
  for (std::size_t i = 0; i < pages.size(); ++i)
    if (pages[i] != first_page_ + i)
      throw std::logic_error("BEWorkload: non-contiguous page allocation");
  // on_migration hears about every page `id` owns, and maps each into the run.
  if (mem.workload_total(id) != pages.size())
    throw std::invalid_argument("BEWorkload: workload id owns other pages");

  const std::vector<double>& weight = cfg_.profile.tables->weight;
  for (std::size_t i = 0; i < pages.size(); ++i) tier_weight_[mem.tier_of(pages[i])] += weight[i];

  mem.add_migration_listener(this, id);
}

void BEWorkload::on_migration(PageId p, TierId from, TierId to) {
  const double w = cfg_.profile.tables->weight[p - first_page_];
  tier_weight_[from] -= w;
  tier_weight_[to] += w;
  ++migrations_pending_;
}

double BEWorkload::live_rate(const TierValues& w) const {
  TierValues lat{};
  for (TierId t = 0; t < mem_->tier_count(); ++t) lat[t] = static_cast<double>(mem_->latency(t));
  return rate_under(w, lat, mem_->tier_count());
}

TierValues BEWorkload::split_at_hit(double hit) const {
  const auto n = static_cast<TierId>(mem_->tier_count());
  std::uint64_t slow = 0;
  for (TierId t = kFastestTier + 1; t < n; ++t) slow += mem_->workload_pages(id_, t);
  TierValues w{hit};
  for (TierId t = kFastestTier + 1; t + 1 < n; ++t)
    w[t] = slow == 0 ? (t == kFastestTier + 1 ? 1.0 - hit : 0.0)
                     : (1.0 - hit) * static_cast<double>(mem_->workload_pages(id_, t)) /
                           static_cast<double>(slow);
  return w;
}

void BEWorkload::prepare(Duration dt) {
  // Migration churn steals compute time from the tick (page copies and, for
  // fault-driven policies, the faults themselves run on the tenant's path).
  const Duration stall =
      std::min<Duration>(dt, migrations_pending_ * cfg_.migration_stall);
  migrations_pending_ = 0;
  const double iters = current_rate() * to_seconds(dt - stall);
  total_iterations_ += iters;
  interval_iterations_ += iters;
  if (sampler_ == nullptr) return;
  // The PEBS-like sample stream: true accesses / sample period, with a
  // fractional carry so low-rate ticks still sample in the long run.
  sample_carry_ += iters * cfg_.profile.accesses_per_iteration /
                   static_cast<double>(cfg_.sample_period);
  pending_samples_ = static_cast<std::uint64_t>(sample_carry_);
  sample_carry_ -= static_cast<double>(pending_samples_);
}

void BEWorkload::emit() {
  // Drawn and ingested a stack chunk at a time: no per-tenant buffer.
  PageId batch[kSampleChunk];
  while (pending_samples_ > 0) {
    const std::span<PageId> chunk(batch,
                                  std::min<std::uint64_t>(pending_samples_, kSampleChunk));
    cfg_.profile.tables->alias.draw(rng_, chunk);
    for (PageId& p : chunk) p += first_page_;  // vpage -> page id
    sampler_->on_samples(id_, chunk, AccessKind::kRead);
    pending_samples_ -= chunk.size();
  }
}

double BEWorkload::take_interval_iterations() {
  const double out = interval_iterations_;
  interval_iterations_ = 0.0;
  return out;
}

}  // namespace mtat

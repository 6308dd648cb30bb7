#include "policy/vtmm_policy.h"

#include <algorithm>

#include "common/state_archive.h"

namespace mtat {

VtmmPolicy::VtmmPolicy(const PolicyContext& ctx) : VtmmPolicy(ctx, Options{}) {}

VtmmPolicy::VtmmPolicy(const PolicyContext& ctx, Options opt) : ctx_(ctx), opt_(opt) {
  PartitionEnforcer::Options peo;
  peo.isolate_be = true;  // vTMM partitions every tenant
  ppe_ = std::make_unique<PartitionEnforcer>(ctx, peo);
}

void VtmmPolicy::on_tick(SimTime, Duration) { ppe_->on_tick(); }

void VtmmPolicy::on_interval(SimTime, Duration, Duration) {
  // Hot set size per tenant: pages at or above the threshold bin, wherever
  // they currently reside.
  const std::size_t n = ctx_.tenants.size();
  std::vector<double> hot(n, 0.0);
  double total_hot = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const PageHotness& h = ppe_->histogram(i);
    hot[i] = static_cast<double>(h.pages_at_or_above_total(opt_.hot_threshold_bin));
    total_hot += hot[i];
  }

  const auto fmem = static_cast<double>(ctx_.mem->capacity(kFastestTier));
  std::vector<std::uint64_t> quotas(n, 0);
  if (total_hot <= 0.0) {
    // Nobody measured hot yet: even split.
    for (auto& q : quotas) q = static_cast<std::uint64_t>(fmem / static_cast<double>(n));
  } else {
    // Proportional shares with a per-tenant floor, normalized back to FMem.
    double share_sum = 0.0;
    std::vector<double> share(n);
    for (std::size_t i = 0; i < n; ++i) {
      share[i] = std::max(opt_.min_share, hot[i] / total_hot);
      share_sum += share[i];
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double capped =
          std::min(fmem * share[i] / share_sum,
                   static_cast<double>(ctx_.mem->workload_total(ctx_.tenants[i].id)));
      quotas[i] = static_cast<std::uint64_t>(capped);
    }
  }
  ppe_->set_plan(quotas);
  ppe_->age_histograms();
}

void VtmmPolicy::persist(StateArchive& ar) { ar(*ppe_); }

}  // namespace mtat

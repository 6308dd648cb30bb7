#include "core/ppe.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "common/state_archive.h"
#include "obs/names.h"

namespace mtat {

PartitionEnforcer::PartitionEnforcer(const PolicyContext& ctx, Options opt)
    : ctx_(ctx), opt_(opt) {
  if (ctx_.tenants.empty()) throw std::invalid_argument("PartitionEnforcer: no tenants");
  quota_.resize(ctx_.tenants.size());
  delta_.assign(ctx_.tenants.size(), 0);
  for (std::size_t i = 0; i < ctx_.tenants.size(); ++i) {
    const TenantInfo& t = ctx_.tenants[i];
    if (t.is_lc) lc_idx_ = i;
    quota_[i] = ctx_.mem->workload_pages(t.id, kFastestTier);
    hist_.push_back(std::make_unique<PageHotness>(*ctx_.mem, t.id));
    hist_.back()->seed_allocated_pages();
    ctx_.sampler->add_sink(hist_.back().get());
  }
}

bool PartitionEnforcer::plan_active() const {
  for (std::int64_t d : delta_)
    if (d != 0) return true;
  return false;
}

void PartitionEnforcer::set_plan(const std::vector<std::uint64_t>& quotas) {
  if (quotas.size() != quota_.size())
    throw std::invalid_argument("PartitionEnforcer: quota vector size mismatch");
  for (std::size_t i = 0; i < quotas.size(); ++i) {
    if (!opt_.isolate_be && i != lc_idx_) continue;  // LC-Only: BE unmanaged
    quota_[i] = quotas[i];
    delta_[i] = static_cast<std::int64_t>(quotas[i]) -
                static_cast<std::int64_t>(
                    ctx_.mem->workload_pages(ctx_.tenants[i].id, kFastestTier));
  }
  double backlog = 0.0;
  for (const std::int64_t d : delta_) backlog += std::abs(static_cast<double>(d));
  if (plans_c_ != nullptr) {
    plans_c_->inc();
    plan_pages_g_->set(backlog);
  }
  plan_start_ts_ = trace_ != nullptr ? trace_->now() : 0;
  plan_start_pages_ = backlog;
  plan_was_active_ = backlog > 0.0;
  stalled_ticks_ = 0;
  if (trace_ != nullptr)
    trace_->instant(obs::names::kEvPpePlan, obs::names::kCatPolicy, "lc_quota",
                    static_cast<double>(quota_[lc_idx_]), "backlog_pages", backlog);
}

void PartitionEnforcer::set_run_context(obs::RunContext* ctx) {
  if (ctx == nullptr) {
    plans_c_ = nullptr;
    plans_abandoned_c_ = nullptr;
    plan_pages_g_ = nullptr;
    trace_ = nullptr;
    return;
  }
  plans_c_ = &ctx->metrics().counter(obs::names::kPpePlans);
  plans_abandoned_c_ = &ctx->metrics().counter(obs::names::kPpePlansAbandoned);
  plan_pages_g_ = &ctx->metrics().gauge(obs::names::kPpePlanPages);
  trace_ = &ctx->trace();
}

PageId PartitionEnforcer::promote_candidate(std::size_t idx) const {
  // Hottest sampled SMem page; if the workload has no sampled-warm SMem pages
  // (e.g. an idle LC workload), any resident SMem page will do — growth of
  // the partition must not stall on telemetry sparsity.
  const PageId hot = hist_[idx]->hottest_slow_page();
  if (hot != kInvalidPage) return hot;
  return hist_[idx]->coldest_slow_page();
}

PageId PartitionEnforcer::demote_candidate(std::size_t idx) const {
  return hist_[idx]->coldest_page(kFastestTier);
}

std::size_t PartitionEnforcer::hottest_be_tenant() const {
  std::size_t best = quota_.size();
  int best_bin = 0;  // require a genuinely warm page (bin >= 1)
  for (std::size_t i = 0; i < quota_.size(); ++i) {
    if (i == lc_idx_) continue;
    const PageId hot = hist_[i]->hottest_slow_page();
    if (hot == kInvalidPage) continue;
    const int bin = hist_[i]->bin_of_page(hot);
    if (bin > best_bin) {
      best_bin = bin;
      best = i;
    }
  }
  return best;
}

std::size_t PartitionEnforcer::coldest_be_tenant() const {
  std::size_t best = quota_.size();
  int best_bin = PageHotness::kBins;
  for (std::size_t i = 0; i < quota_.size(); ++i) {
    if (i == lc_idx_) continue;
    const PageId cold = hist_[i]->coldest_page(kFastestTier);
    if (cold == kInvalidPage) continue;
    const int bin = hist_[i]->bin_of_page(cold);
    if (bin < best_bin) {
      best_bin = bin;
      best = i;
    }
  }
  return best;
}

bool PartitionEnforcer::exchange_pair(std::size_t pi, std::size_t di) {
  const PageId up = promote_candidate(pi);
  const PageId down = demote_candidate(di);
  if (up == kInvalidPage || down == kInvalidPage) return false;
  return ctx_.engine->exchange(up, down);
}

void PartitionEnforcer::execute_plan_slice() {
  // Pages this slice may move: Algorithm 3's p = min(p_max, remainingPages),
  // further capped by the engine's bandwidth budget (2 budget units/pair).
  std::uint64_t slice = std::min<std::uint64_t>(opt_.p_max, ctx_.engine->budget_pages() / 2);

  // Pick the opposite-signed tenant with the largest remaining demand —
  // repeated picks spread the LC-induced load across partners roughly
  // proportionally to their demands, as Algorithm 3 lines 6-12 prescribe.
  const auto pick_partner = [&](bool need_demoter) -> std::size_t {
    std::size_t best = quota_.size();
    std::int64_t best_mag = 0;
    for (std::size_t i = 0; i < quota_.size(); ++i) {
      if (i == lc_idx_) continue;
      const std::int64_t d = need_demoter ? -delta_[i] : delta_[i];
      if (d > best_mag) {
        best_mag = d;
        best = i;
      }
    }
    return best;
  };

  // Move one page in the required direction for tenant `idx`, pairing with a
  // counterpart when both tiers are full. Returns false when no progress is
  // possible this tick.
  const auto step = [&](std::size_t idx) -> bool {
    if (delta_[idx] > 0) {
      // Needs promotion. Free FMem first, else exchange against a demoter.
      const PageId up = promote_candidate(idx);
      if (up == kInvalidPage) {
        delta_[idx] = 0;  // nothing left in SMem to promote: plan impossible
        return false;
      }
      if (ctx_.mem->free_pages(kFastestTier) > 0) {
        if (!ctx_.engine->promote_to_fastest(up)) return false;
        --delta_[idx];
        return true;
      }
      std::size_t partner = pick_partner(/*need_demoter=*/true);
      if (partner != quota_.size()) {
        if (!exchange_pair(idx, partner)) return false;
        --delta_[idx];
        ++delta_[partner];
        return true;
      }
      // No tenant owes pages (LC-Only mode, or rounding drift): take from
      // the BE workload with the globally coldest FMem page.
      partner = coldest_be_tenant();
      if (partner == quota_.size() || !exchange_pair(idx, partner)) return false;
      --delta_[idx];
      return true;
    }
    if (delta_[idx] < 0) {
      // Needs demotion. Pair with a promoter when possible so the freed
      // capacity is consumed in the same slice; otherwise demote alone.
      std::size_t partner = pick_partner(/*need_demoter=*/false);
      if (partner != quota_.size()) {
        if (!exchange_pair(partner, idx)) return false;
        ++delta_[idx];
        --delta_[partner];
        return true;
      }
      if (!opt_.isolate_be) {
        partner = hottest_be_tenant();
        if (partner != quota_.size() && exchange_pair(partner, idx)) {
          ++delta_[idx];
          return true;
        }
      }
      const PageId down = demote_candidate(idx);
      if (down == kInvalidPage) {
        delta_[idx] = 0;
        return false;
      }
      if (!ctx_.engine->demote(down)) return false;
      ++delta_[idx];
      return true;
    }
    return false;
  };

  // LC movement takes precedence within every slice (§3.3.1). The ablation
  // defers LC to the tail of the slice instead.
  if (opt_.lc_first)
    while (slice > 0 && delta_[lc_idx_] != 0 && step(lc_idx_)) --slice;
  // Then settle BE-to-BE discrepancies, largest demand first.
  while (slice > 0) {
    const std::size_t promoter = pick_partner(/*need_demoter=*/false);
    if (promoter == quota_.size()) break;
    if (!step(promoter)) break;
    --slice;
  }
  // Any demote-only residue (promoters finished early, e.g. out of SMem
  // pages) still has to drain or the plan never completes.
  while (slice > 0) {
    const std::size_t demoter = pick_partner(/*need_demoter=*/true);
    if (demoter == quota_.size()) break;
    if (!step(demoter)) break;
    --slice;
  }
  if (!opt_.lc_first)
    while (slice > 0 && delta_[lc_idx_] != 0 && step(lc_idx_)) --slice;
}

void PartitionEnforcer::refine() {
  // §7 bandwidth-aware extension: don't intensify a saturated fast tier.
  if (opt_.bandwidth_backoff_factor > 0.0 &&
      ctx_.mem->contention_factor(kFastestTier) >= opt_.bandwidth_backoff_factor)
    return;
  // Figure 4b: within-partition exchanges, hottest-SMem vs coldest-FMem.
  const auto refine_within = [&](std::size_t idx) {
    for (std::size_t k = 0; k < opt_.refine_cap; ++k) {
      const PageId hot = hist_[idx]->hottest_slow_page();
      if (hot == kInvalidPage) return;
      const PageId cold = hist_[idx]->coldest_page(kFastestTier);
      if (cold == kInvalidPage) return;
      if (hist_[idx]->bin_of_page(hot) - hist_[idx]->bin_of_page(cold) <
          opt_.refine_min_gap)
        return;
      if (!ctx_.engine->exchange(hot, cold)) return;
    }
  };

  refine_within(lc_idx_);
  if (opt_.isolate_be) {
    for (std::size_t i = 0; i < quota_.size(); ++i)
      if (i != lc_idx_) refine_within(i);
    return;
  }
  // LC-Only: BE pages compete freely across workloads for the residual FMem.
  for (std::size_t k = 0; k < opt_.refine_cap; ++k) {
    const std::size_t pi = hottest_be_tenant();
    if (pi == quota_.size()) return;
    const std::size_t di = coldest_be_tenant();
    if (di == quota_.size()) return;
    // Tenant selection above guarantees both pages exist.
    const PageId hot = hist_[pi]->hottest_slow_page();
    const PageId cold = hist_[di]->coldest_page(kFastestTier);
    if (hist_[pi]->bin_of_page(hot) - hist_[di]->bin_of_page(cold) <
        opt_.refine_min_gap)
      return;
    if (!ctx_.engine->exchange(hot, cold)) return;
  }
}

void PartitionEnforcer::on_tick() {
  if (plan_active()) {
    std::int64_t backlog_before = 0;
    for (const std::int64_t d : delta_) backlog_before += std::abs(d);
    execute_plan_slice();
    // Plan drained this tick: emit the whole execution as one sim-time span
    // (set_plan -> drain), the "plan execution" lane of the trace.
    if (plan_was_active_ && !plan_active()) {
      plan_was_active_ = false;
      if (trace_ != nullptr)
        trace_->complete(obs::names::kEvPpePlanExec, obs::names::kCatPolicy, plan_start_ts_,
                         trace_->now() - plan_start_ts_, "pages", plan_start_pages_);
    }
    if (opt_.abandon_stalled_plans && plan_active()) {
      std::int64_t backlog_after = 0;
      for (const std::int64_t d : delta_) backlog_after += std::abs(d);
      stalled_ticks_ = backlog_after == backlog_before ? stalled_ticks_ + 1 : 0;
      if (stalled_ticks_ >= opt_.abandon_after_ticks) {
        // The substrate isn't letting this plan through (migration outage,
        // collapsed bandwidth). Drop it rather than hammer the same moves:
        // refinement resumes next tick, and the next interval replans from
        // the actual placement.
        std::fill(delta_.begin(), delta_.end(), 0);
        stalled_ticks_ = 0;
        plan_was_active_ = false;
        if (plans_abandoned_c_ != nullptr) plans_abandoned_c_->inc();
        if (trace_ != nullptr)
          trace_->instant(obs::names::kEvPpePlanAbandon, obs::names::kCatPolicy, "pages",
                          static_cast<double>(backlog_before));
      }
    }
  } else {
    refine();
  }
}

void PartitionEnforcer::age_histograms() {
  if (!opt_.enable_aging) return;
  if (++intervals_since_aging_ < opt_.age_every_intervals) return;
  intervals_since_aging_ = 0;
  for (auto& h : hist_) h->age();
}

void PartitionEnforcer::persist(StateArchive& ar) {
  ar.fixed(quota_);
  ar.fixed(delta_);
  ar(intervals_since_aging_);
  for (auto& h : hist_) ar(*h);
  ar(plan_start_ts_, plan_start_pages_, plan_was_active_, stalled_ticks_);
}

}  // namespace mtat

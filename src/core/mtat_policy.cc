#include "core/mtat_policy.h"

#include <algorithm>

#include "common/state_archive.h"
#include "obs/names.h"

namespace mtat {

MtatPolicy::MtatPolicy(const PolicyContext& ctx, Duration interval, Duration lc_slo,
                       std::vector<BEPerfModel> be_models, Options opt, SacAgent* shared_agent)
    : ctx_(ctx), full_(opt.full), wd_(opt.watchdog), lc_slo_(lc_slo) {
  opt.ppe.isolate_be = full_;
  opt.ppm.manage_be = full_;
  for (std::size_t i = 0; i < ctx.tenants.size(); ++i)
    if (ctx.tenants[i].is_lc) lc_idx_ = i;
  ppe_ = std::make_unique<PartitionEnforcer>(ctx, opt.ppe);
  // Eq. 1 bounds |alpha| by the bandwidth M/2t; moving more than the whole
  // FMem in one interval is additionally meaningless, so cap there too.
  const std::uint64_t max_alpha = std::min(ctx.engine->max_pages_per_direction(interval),
                                           ctx.mem->capacity(kFastestTier));
  max_alpha_ = max_alpha;
  fmem_capacity_ = ctx.mem->capacity(kFastestTier);
  min_lc_pages_ = opt.ppm.min_lc_pages;
  ppm_ = std::make_unique<PartitionPolicyMaker>(ctx.mem->capacity(kFastestTier), max_alpha,
                                                lc_slo, std::move(be_models), opt.ppm,
                                                shared_agent);
}

std::uint64_t MtatPolicy::lc_quota() const { return ppe_->quota(lc_idx_); }

void MtatPolicy::on_tick(SimTime, Duration) { ppe_->on_tick(); }

void MtatPolicy::set_run_context(obs::RunContext* ctx) {
  if (ctx == nullptr) {
    decide_wall_h_ = nullptr;
    lc_quota_g_ = nullptr;
    mode_g_ = nullptr;
    mode_transitions_c_ = nullptr;
    trace_ = nullptr;
    watchdog_active_ = wd_.mode == Options::Watchdog::Mode::kOn;
  } else {
    decide_wall_h_ = &ctx->metrics().histogram(obs::names::kPpmDecideWallUs);
    lc_quota_g_ = &ctx->metrics().gauge(obs::names::kMtatLcQuotaPages);
    mode_g_ = &ctx->metrics().gauge(obs::names::kMtatMode);
    mode_transitions_c_ = &ctx->metrics().counter(obs::names::kMtatModeTransitions);
    trace_ = &ctx->trace();
    // kAuto arms the watchdog exactly when the run injects faults: a clean
    // run keeps the pre-watchdog control flow (and its bit-identical
    // behaviour), a faulty one gets the degradation ladder.
    watchdog_active_ = wd_.mode == Options::Watchdog::Mode::kOn ||
                       (wd_.mode == Options::Watchdog::Mode::kAuto && ctx->faults() != nullptr);
  }
  if (watchdog_active_) {
    ppe_->enable_plan_abandonment(true);
    if (mode_g_ != nullptr) mode_g_->set(static_cast<double>(static_cast<int>(mode_)));
  }
  ppm_->set_run_context(ctx);
  ppe_->set_run_context(ctx);
}

std::uint64_t MtatPolicy::heuristic_quota(Duration lc_p99) const {
  // Waterline control on the one signal that survives a telemetry blackout:
  // the measured P99 itself. Grow at the full Eq. 1 rate when latency nears
  // the SLO, bleed the reservation off slowly when it is comfortably low,
  // hold in between.
  const std::uint64_t cur = ppe_->quota(lc_idx_);
  const auto p99 = static_cast<double>(lc_p99);
  const auto slo = static_cast<double>(lc_slo_);
  std::uint64_t target = cur;
  if (p99 > wd_.grow_above * slo) {
    target = cur + max_alpha_;
  } else if (p99 < wd_.shrink_below * slo) {
    const auto step = static_cast<std::uint64_t>(0.05 * static_cast<double>(max_alpha_));
    target = cur > step ? cur - step : 0;
  }
  return std::clamp(target, min_lc_pages_, fmem_capacity_);
}

void MtatPolicy::transition_to(ControlMode next) {
  if (next == mode_) return;
  mode_ = next;
  unhealthy_streak_ = 0;
  healthy_streak_ = 0;
  if (mode_transitions_c_ != nullptr) {
    mode_transitions_c_->inc();
    mode_g_->set(static_cast<double>(static_cast<int>(mode_)));
  }
  if (trace_ != nullptr)
    trace_->instant(obs::names::kEvMtatModeChange, obs::names::kCatPolicy, "mode",
                    static_cast<double>(static_cast<int>(mode_)));
}

void MtatPolicy::on_interval(SimTime, Duration, Duration lc_p99) {
  const TenantInfo& lc = ctx_.tenants[lc_idx_];
  const IntervalCounters counters = ctx_.sampler->collect(lc.id);
  const double usage = ctx_.mem->fmem_usage_ratio(lc.id);

  // Health inputs for the watchdog. An interval with traffic (p99 > 0) but
  // zero samples means telemetry went dark — the RL state would be built
  // from stale nothing; an idle interval is fine.
  const bool telemetry_ok = counters.total() > 0 || lc_p99 == 0;
  const bool violated = lc_p99 > lc_slo_;

  std::uint64_t lc_target = 0;
  std::vector<std::uint64_t> be_pages;
  if (mode_ == ControlMode::kRl) {
    PartitionPolicyMaker::Decision decision;
    {
      // PP-M's wall cost (state build + SAC training + SA search) is the §5.5
      // overhead number; the span's sim placement vs wall duration convention
      // is described in obs/trace.h.
      obs::WallSpan span(trace_, obs::names::kEvPpmDecide, obs::names::kCatPolicy, nullptr,
                        decide_wall_h_);
      decision = ppm_->decide(ppe_->quota(lc_idx_), usage, counters, lc_p99);
    }
    lc_target = decision.lc_pages;
    be_pages = std::move(decision.be_pages);
  } else {
    // Degraded rungs bypass PP-M entirely: no RL decide, no training on
    // whatever garbage tripped the watchdog.
    lc_target = mode_ == ControlMode::kStatic ? fmem_capacity_ : heuristic_quota(lc_p99);
    if (full_ && ctx_.tenants.size() > 1) {
      const std::uint64_t residual = fmem_capacity_ - lc_target;
      const std::size_t nbe = ctx_.tenants.size() - 1;
      be_pages.assign(nbe, residual / nbe);
      for (std::size_t i = 0; i < residual % nbe; ++i) ++be_pages[i];
    }
  }
  if (lc_quota_g_ != nullptr) lc_quota_g_->set(static_cast<double>(lc_target));

  // Assemble the quota plan in tenant order: LC slot from the controller,
  // BE slots from the SA split / even fallback (Full) or left to competition
  // (LC-Only).
  std::vector<std::uint64_t> quotas(ctx_.tenants.size(), 0);
  quotas[lc_idx_] = lc_target;
  if (full_) {
    std::size_t be_slot = 0;
    for (std::size_t i = 0; i < ctx_.tenants.size(); ++i) {
      if (i == lc_idx_) continue;
      quotas[i] = be_slot < be_pages.size() ? be_pages[be_slot] : 0;
      ++be_slot;
    }
  }
  ppe_->set_plan(quotas);
  ppe_->age_histograms();

  if (!watchdog_active_) return;

  // Degradation ladder: consecutive bad intervals step down one rung,
  // consecutive good ones step back up — never both in one interval, and the
  // recover_after > trip_after asymmetry keeps the controller from
  // oscillating across a rung boundary.
  bool down = false;
  bool up = false;
  switch (mode_) {
    case ControlMode::kRl:
      down = !telemetry_ok || !ppm_->healthy();
      break;
    case ControlMode::kHeuristic:
      down = violated;
      up = telemetry_ok && !violated;
      break;
    case ControlMode::kStatic:
      up = !violated;
      break;
  }
  unhealthy_streak_ = down ? unhealthy_streak_ + 1 : 0;
  healthy_streak_ = up ? healthy_streak_ + 1 : 0;
  if (unhealthy_streak_ >= wd_.trip_after && mode_ != ControlMode::kStatic)
    transition_to(mode_ == ControlMode::kRl ? ControlMode::kHeuristic : ControlMode::kStatic);
  else if (healthy_streak_ >= wd_.recover_after && mode_ != ControlMode::kRl)
    transition_to(mode_ == ControlMode::kStatic ? ControlMode::kHeuristic : ControlMode::kRl);
}

void MtatPolicy::persist(StateArchive& ar) {
  // The watchdog's arming follows the run context, not the history.
  ar(*ppe_, *ppm_, mode_, unhealthy_streak_, healthy_streak_);
  ar.check(mode_ == ControlMode::kRl || mode_ == ControlMode::kHeuristic ||
               mode_ == ControlMode::kStatic,
           "bad control mode");
}

}  // namespace mtat

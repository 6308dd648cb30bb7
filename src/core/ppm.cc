#include "core/ppm.h"

#include <algorithm>
#include <cmath>

#include "common/state_archive.h"
#include "obs/names.h"

namespace mtat {

PartitionPolicyMaker::PartitionPolicyMaker(std::uint64_t fmem_capacity,
                                           std::uint64_t max_alpha_pages, Duration slo,
                                           std::vector<BEPerfModel> be_models,
                                           const Options& opt, SacAgent* shared_agent)
    : fmem_capacity_(fmem_capacity),
      max_alpha_pages_(max_alpha_pages),
      slo_(slo),
      be_models_(std::move(be_models)),
      opt_(opt),
      rng_(opt.seed) {
  if (fmem_capacity == 0) throw std::invalid_argument("PartitionPolicyMaker: zero FMem");
  if (max_alpha_pages == 0)
    throw std::invalid_argument("PartitionPolicyMaker: zero action range");
  if (shared_agent != nullptr) {
    agent_ = shared_agent;
  } else {
    owned_agent_ = std::make_unique<SacAgent>(opt_.sac);
    agent_ = owned_agent_.get();
  }
}

std::vector<double> PartitionPolicyMaker::build_state(double usage_ratio,
                                                      const IntervalCounters& c) {
  const auto count = static_cast<double>(c.total());
  max_access_count_ = std::max(max_access_count_, count);
  return {usage_ratio, c.fmem_access_ratio(), count / max_access_count_};
}

PartitionPolicyMaker::Decision PartitionPolicyMaker::decide(std::uint64_t current_lc_pages,
                                                            double fmem_usage_ratio,
                                                            const IntervalCounters& lc_counters,
                                                            Duration lc_p99) {
  ++decisions_;
  const std::vector<double> state = build_state(fmem_usage_ratio, lc_counters);

  // Close the previous transition with the Eq. 2 reward. An idle interval
  // (no completed requests) reports p99 = 0 and counts as compliant.
  if (have_prev_) {
    const bool compliant = lc_p99 <= slo_;
    const double reward = compliant ? 1.0 - fmem_usage_ratio : opt_.violation_penalty;
    rewards_.push_back(reward);
    if (reward_g_ != nullptr) {
      reward_g_->set(reward);
      if (!compliant) violations_c_->inc();
    }
    agent_->observe(prev_state_, prev_action_, reward, state, /*done=*/false);
    if (agent_->ready_to_update()) {
      obs::WallSpan span(nullptr, obs::names::kPpmSacUpdateWallUs, obs::names::kCatPolicy,
                         sac_update_wall_c_);
      agent_->update(opt_.gradient_steps_per_interval);
    }
  }

  // Draw the next action. The SLO guard (§1's "rapid response to sudden
  // demand surges") forces full expansion when latency nears the SLO and
  // vetoes shrinking while latency is still warm; either override is
  // recorded as the taken action, so the agent learns from it.
  std::vector<double> action = agent_->act(state, deterministic_);
  // Sanitize before anything consumes the action: a NaN here would be UB at
  // the alpha cast below and would poison the replay buffer via observe(); a
  // divergent magnitude would slam the reservation to a rail. Both are
  // replaced by "hold" (0) and reported; healthy agents always emit finite
  // values in [-1, 1], so this is behaviour-neutral outside fault injection.
  last_action_ok_ = true;
  for (double& a : action) {
    if (!std::isfinite(a) || std::abs(a) > 1.000001) {
      a = std::isfinite(a) ? std::clamp(a, -1.0, 1.0) : 0.0;
      last_action_ok_ = false;
    }
  }
  if (!last_action_ok_ && nonfinite_actions_c_ != nullptr) nonfinite_actions_c_->inc();
  action[0] = std::max(action[0], -opt_.max_shrink_fraction);  // gradual release
  if (opt_.slo_guard) {
    const auto p99 = static_cast<double>(lc_p99);
    // Trip on the instantaneous reading (a surge must not be averaged away);
    // hold on a smoothed reading so one quiet interval at the compliance
    // edge doesn't un-veto shrinking.
    p99_smooth_ = 0.5 * p99 + 0.5 * std::max(p99_smooth_, 0.0);
    if (p99 > opt_.guard_trip * static_cast<double>(slo_)) {
      action[0] = 1.0;
      cooldown_left_ = opt_.guard_cooldown_intervals;
      if (guard_trips_c_ != nullptr) guard_trips_c_->inc();
      if (trace_ != nullptr)
        trace_->instant(obs::names::kEvPpmGuardTrip, obs::names::kCatPolicy, "p99_ms",
                        p99 / 1e6);
    } else if (std::max(p99, p99_smooth_) > opt_.guard_hold * static_cast<double>(slo_) ||
               cooldown_left_ > 0) {
      action[0] = std::max(action[0], 0.0);
      if (cooldown_left_ > 0) --cooldown_left_;
    }
  }
  prev_state_ = state;
  prev_action_ = action;
  have_prev_ = true;

  // Violation memory: a violation pins a floor at the violating reservation
  // plus one shrink step; the floor lifts once the measured load falls well
  // below the level that violated (or rises, in which case a new violation
  // will re-pin it higher).
  if (opt_.slo_guard && opt_.floor_release_fraction > 0.0) {
    const auto count = static_cast<double>(lc_counters.total());
    if (lc_p99 > slo_) {
      const auto step =
          static_cast<std::uint64_t>(opt_.max_shrink_fraction *
                                     static_cast<double>(max_alpha_pages_));
      floor_pages_ = std::min(fmem_capacity_, current_lc_pages + step);
      floor_count_level_ = count;
    } else if (floor_pages_ > 0 && count < opt_.floor_release_fraction * floor_count_level_) {
      floor_pages_ = 0;
    }
  }

  // Map [-1, 1] onto alpha in [-M/2t, +M/2t] pages (Eq. 1) and clamp the
  // resulting reservation to [min_lc, capacity].
  const auto alpha = static_cast<std::int64_t>(action[0] * static_cast<double>(max_alpha_pages_));
  std::int64_t target = static_cast<std::int64_t>(current_lc_pages) + alpha;
  target = std::clamp<std::int64_t>(target, static_cast<std::int64_t>(opt_.min_lc_pages),
                                    static_cast<std::int64_t>(fmem_capacity_));
  if (opt_.slo_guard)
    target = std::max<std::int64_t>(target, static_cast<std::int64_t>(floor_pages_));

  Decision d;
  d.lc_pages = static_cast<std::uint64_t>(target);

  if (opt_.manage_be && !be_models_.empty()) {
    const std::uint64_t remaining = fmem_capacity_ - d.lc_pages;
    if (opt_.be_even_split) {
      d.be_pages.assign(be_models_.size(), remaining / be_models_.size());
      for (std::size_t i = 0; i < remaining % be_models_.size(); ++i) d.be_pages[i]++;
    } else if (opt_.joint_objective) {
      obs::WallSpan span(nullptr, obs::names::kPpmSaWallUs, obs::names::kCatPolicy, sa_wall_c_);
      std::vector<std::uint64_t> caps;
      for (const auto& m : be_models_) caps.push_back(m.max_useful_pages);
      const SAResult sa =
          anneal_partition(opt_.joint_objective, caps, remaining, opt_.sa, rng_);
      d.be_pages = sa.allocation;
      d.sa_objective = sa.objective;
    } else {
      obs::WallSpan span(nullptr, obs::names::kPpmSaWallUs, obs::names::kCatPolicy, sa_wall_c_);
      const SAResult sa = anneal_be_partition(be_models_, remaining, opt_.sa, rng_);
      d.be_pages = sa.allocation;
      d.sa_objective = sa.objective;
    }
  }
  if (decisions_c_ != nullptr) decisions_c_->inc();
  if (trace_ != nullptr)
    trace_->instant(obs::names::kEvPpmDecision, obs::names::kCatPolicy, "lc_pages",
                    static_cast<double>(d.lc_pages), "alpha", action[0]);
  return d;
}

bool PartitionPolicyMaker::healthy() const {
  return last_action_ok_ && std::isfinite(agent_->last_critic_loss()) &&
         std::isfinite(agent_->last_actor_loss());
}

void PartitionPolicyMaker::set_run_context(obs::RunContext* ctx) {
  if (ctx == nullptr) {
    decisions_c_ = violations_c_ = guard_trips_c_ = nullptr;
    nonfinite_actions_c_ = nullptr;
    reward_g_ = nullptr;
    sac_update_wall_c_ = sa_wall_c_ = nullptr;
    trace_ = nullptr;
  } else {
    obs::MetricsRegistry& reg = ctx->metrics();
    decisions_c_ = &reg.counter(obs::names::kPpmDecisions);
    violations_c_ = &reg.counter(obs::names::kPpmViolations);
    guard_trips_c_ = &reg.counter(obs::names::kPpmGuardTrips);
    nonfinite_actions_c_ = &reg.counter(obs::names::kPpmNonfiniteActions);
    reward_g_ = &reg.gauge(obs::names::kPpmReward);
    sac_update_wall_c_ = &reg.counter(obs::names::kPpmSacUpdateWallUs);
    sa_wall_c_ = &reg.counter(obs::names::kPpmSaWallUs);
    trace_ = &ctx->trace();
  }
  agent_->set_run_context(ctx);
}

void PartitionPolicyMaker::persist(StateArchive& ar) {
  if (owned_agent_ == nullptr)
    throw std::logic_error("PartitionPolicyMaker: a shared agent cannot be checkpointed");
  ar(*agent_, rng_, max_access_count_, deterministic_, p99_smooth_, cooldown_left_, floor_pages_,
     floor_count_level_, have_prev_, prev_state_, prev_action_, decisions_, rewards_,
     last_action_ok_);
  const SacConfig& sac = opt_.sac;
  ar.check(!have_prev_ || (prev_state_.size() == static_cast<std::size_t>(sac.state_dim) &&
                           prev_action_.size() == static_cast<std::size_t>(sac.action_dim)),
           "pending transition has the wrong shape");
}

}  // namespace mtat

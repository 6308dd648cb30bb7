#include "sim/colocation_sim.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "common/host_cpus.h"
#include "common/state_archive.h"
#include "obs/names.h"

namespace mtat {

const char* policy_name(PolicyKind k) {
  switch (k) {
    case PolicyKind::kMtatFull: return "mtat_full";
    case PolicyKind::kMtatLcOnly: return "mtat_lc_only";
    case PolicyKind::kMemtis: return "memtis";
    case PolicyKind::kTpp: return "tpp";
    case PolicyKind::kFmemAll: return "fmem_all";
    case PolicyKind::kSmemAll: return "smem_all";
    case PolicyKind::kVtmm: return "vtmm";
    case PolicyKind::kDamon: return "damon";
    case PolicyKind::kMemtisHp: return "memtis_hp";
  }
  return "?";
}

TieredMemory::Config SimConfig::memory_config() const {
  if (!tiers.empty()) return {tiers};
  TieredMemory::Config mc =
      TieredMemory::Config::two_tier(bytes_to_pages(fmem), bytes_to_pages(smem));
  mc.tiers[kFastestTier].link_bandwidth_bytes_per_sec = migration_bandwidth;
  return mc;
}

ColocationSim::ColocationSim(const SimConfig& cfg, obs::RunContext* run_ctx) : cfg_(cfg) {
  // Run without an explicit context? The sim owns one recording into the
  // process-global trace — the classic single-run behaviour.
  if (run_ctx == nullptr) {
    owned_ctx_ = std::make_unique<obs::RunContext>();
    ctx_ = owned_ctx_.get();
  } else {
    ctx_ = run_ctx;
  }
  obs::MetricsRegistry& reg = ctx_->metrics();

  // --- Platform ---------------------------------------------------------------
  const TieredMemory::Config mc = cfg.memory_config();
  // Each tier's spec carries the bandwidth of its downhill link; link 0 is
  // also the engine's headline (Eq. 1) bandwidth.
  MigrationEngine::Config ec{mc.tiers.front().link_bandwidth_bytes_per_sec};
  for (std::size_t t = 0; t + 1 < mc.tiers.size(); ++t)
    ec.link_bandwidth_bytes_per_sec.push_back(mc.tiers[t].link_bandwidth_bytes_per_sec);
  mem_ = std::make_unique<TieredMemory>(mc);
  engine_ = std::make_unique<MigrationEngine>(*mem_, ec);
  engine_->set_run_context(ctx_);
  sampler_ = std::make_unique<AccessSampler>(*mem_, cfg.lc.sample_period);
  // Fault injection (DESIGN.md §12): when the context carries an injector,
  // thread it through telemetry here; the engine and the RL agent pick it up
  // from the context in their own set_run_context.
  inj_ = ctx_->faults();
  if (inj_ != nullptr) sampler_->set_faults(inj_, *ctx_);

  // Registry handles for the sim's own signals; everything else registers in
  // the component that owns the signal (engine above, queue/policy below).
  policy_wall_c_ = &reg.counter(obs::names::kPolicyWallUs);
  policy_wall_h_ = &reg.histogram(obs::names::kPolicyWallUsHist);
  intervals_c_ = &reg.counter(obs::names::kSimIntervals);
  measured_intervals_c_ = &reg.counter(obs::names::kSimMeasuredIntervals);
  pages_moved_c_ = &reg.counter(obs::names::kMigrationPagesMoved);
  // One gauge per tier; tier<k> names exist only beyond two tiers.
  const char* const kFactorNames[] = {obs::names::kBwFmemFactor, obs::names::kBwSmemFactor,
                                      obs::names::kBwTier2Factor, obs::names::kBwTier3Factor};
  for (std::size_t t = 0; t < std::min(mem_->tier_count(), std::size(kFactorNames)); ++t)
    bw_factor_g_[t] = &reg.gauge(kFactorNames[t]);
  trace_track_ = ctx_->trace().allocate_track();

  // --- Tenants: LC allocates first (paper Figure 2 setup) ---------------------
  AllocPolicy lc_alloc = kFastestFirst;
  AllocPolicy be_alloc = kFastestFirst;
  if (cfg.policy == PolicyKind::kFmemAll) be_alloc = kTierOnly(kFastestTier + 1);
  if (cfg.policy == PolicyKind::kSmemAll) lc_alloc = kTierOnly(kFastestTier + 1);

  Rng seeder(cfg.seed);
  const WorkloadId lc_id = 0;
  lc_ = std::make_unique<LCWorkload>(*mem_, lc_id, cfg.lc, lc_alloc, seeder.next_u64());
  lc_->space().set_observer(sampler_.get());
  for (std::size_t i = 0; i < cfg.be.size(); ++i)
    be_.push_back(std::make_unique<BEWorkload>(*mem_, static_cast<WorkloadId>(i + 1),
                                               cfg.be[i], be_alloc, sampler_.get(),
                                               seeder.next_u64()));

  queue_ = std::make_unique<QueueSim>(*lc_, cfg.interval, seeder.next_u64());
  queue_->set_run_context(ctx_);
  be_measured_iters_.assign(be_.size(), 0.0);
  be_split_.resize(be_.size());

  // --- Policy -------------------------------------------------------------------
  PolicyContext ctx;
  ctx.mem = mem_.get();
  ctx.engine = engine_.get();
  ctx.sampler = sampler_.get();
  ctx.tenants.push_back(TenantInfo{lc_id, true});
  for (std::size_t i = 0; i < be_.size(); ++i)
    ctx.tenants.push_back(TenantInfo{static_cast<WorkloadId>(i + 1), false});

  switch (cfg.policy) {
    case PolicyKind::kMemtis:
      policy_ = std::make_unique<MemtisPolicy>(ctx);
      break;
    case PolicyKind::kTpp:
      policy_ = std::make_unique<TppPolicy>(ctx);
      break;
    case PolicyKind::kVtmm:
      policy_ = std::make_unique<VtmmPolicy>(ctx);
      break;
    case PolicyKind::kDamon:
      policy_ = std::make_unique<DamonPolicy>(ctx);
      break;
    case PolicyKind::kMemtisHp:
      policy_ = std::make_unique<MemtisHpPolicy>(ctx);
      break;
    case PolicyKind::kFmemAll:
      policy_ = std::make_unique<StaticPolicy>(StaticPolicy::Kind::kFMemAll);
      break;
    case PolicyKind::kSmemAll:
      policy_ = std::make_unique<StaticPolicy>(StaticPolicy::Kind::kSMemAll);
      break;
    case PolicyKind::kMtatFull:
    case PolicyKind::kMtatLcOnly: {
      // Offline profiles for PP-M's BE partitioning (§3.2.2): normalized
      // throughput as a function of granted FMem, from the kernel profiles.
      std::vector<BEPerfModel> models;
      for (const auto& bw : be_) {
        BEWorkload* w = bw.get();
        models.push_back(BEPerfModel{
            [w](std::uint64_t pages) { return w->rate_at_pages(pages) / w->perf_full(); },
            w->space().num_pages()});
      }
      MtatPolicy::Options opt = cfg.mtat;
      opt.full = cfg.policy == PolicyKind::kMtatFull;
      if (cfg.bandwidth.enabled && !opt.ppm.joint_objective) {
        // Contention-aware SA objective: with shared tier bandwidth, one
        // tenant's allocation changes every tenant's performance, so P(M) is
        // evaluated jointly.
        opt.ppm.joint_objective = [this](const auto& alloc) { return joint_be_objective(alloc); };
      }
      if (opt.ppm.sa.unit_pages <= 1) {
        // Paper granularity: +-1 GB on 32 GB FMem -> 1/32 of capacity.
        opt.ppm.sa.unit_pages = std::max<std::uint64_t>(1, mem_->capacity(kFastestTier) / 32);
      }
      auto mtat = std::make_unique<MtatPolicy>(ctx, cfg.interval, cfg.lc.slo,
                                               std::move(models), opt, cfg.shared_agent);
      mtat_ = mtat.get();
      mtat_->set_run_context(ctx_);
      policy_ = std::move(mtat);
      break;
    }
  }

  lane_cap_ = host_lane_limit();
  bw_factor_.fill(1.0);
  next_interval_ = cfg.interval;
  reset_stats();
  // Construction (including the reset_stats() above) is every sim's common
  // birth state, not part of its history — only ops from here on are journaled.
  journal_armed_ = true;
}

ColocationSim::~ColocationSim() = default;

void ColocationSim::run(const LoadPattern& pattern, Duration duration, bool measure) {
  if (journal_armed_)
    journal_.push_back({SimCheckpoint::Op::Kind::kRun, pattern, duration, measure});
  // Measured phases run the RL policy on its mean action (no exploration
  // noise); training phases explore. Learning continues in both.
  if (mtat_ != nullptr) mtat_->ppm().set_deterministic(measure);
  obs::TraceRecorder& tr = ctx_->trace();
  tr.set_track(trace_track_);
  queue_->set_pattern(&pattern, now_);
  const SimTime end = now_ + duration;
  double offered_now = pattern.rate_at(0);
  SimTime interval_start = now_;
  const bool use_lanes = lanes_allowed();
  std::optional<TenantLanes> lanes;  // joined before run() returns
  // Lent to the context once they start, for PP-M's SAC updates; taken
  // back before they are joined.
  struct LendGuard {
    obs::RunContext* ctx;
    ~LendGuard() { ctx->set_chunk_team(nullptr); }
  } lend{ctx_};
  last_run_lanes_ = 0;
  while (now_ < end) {
    tr.set_now(now_);
    const Duration dt = std::min<Duration>(cfg_.tick, end - now_);
    if (inj_ != nullptr) inj_->set_now(now_);  // windows are evaluated at tick start
    apply_contention(pattern.rate_at(now_ - (end - duration)));
    engine_->begin_interval(dt);
    policy_->on_tick(now_, dt);
    for (auto& bw : be_) bw->prepare(dt);
    if (use_lanes) {
      tenant_phase_on_lanes(lanes, now_ + dt);
    } else {
      for (auto& bw : be_) bw->emit();
      queue_->run_until(now_ + dt);
    }
    now_ += dt;
    if (inj_ != nullptr) inj_->set_now(now_);
    if (now_ >= next_interval_) {
      tr.set_now(now_);
      offered_now = pattern.rate_at(now_ - (end - duration));
      LatencyHistogram h = queue_->recorder().collect_interval();
      const Duration p99 = h.percentile(99.0);
      {
        obs::WallSpan span(&tr, obs::names::kEvPolicyOnInterval, obs::names::kCatPolicy,
                           policy_wall_c_, policy_wall_h_);
        policy_->on_interval(now_, cfg_.interval, p99);
      }
      intervals_c_->inc();
      tr.complete(obs::names::kEvInterval, obs::names::kCatSim, interval_start,
                  now_ - interval_start, "p99_ms", static_cast<double>(p99) / 1e6,
                  "offered_rps", offered_now);
      if (measure) {
        measured_lat_.merge(h);
        record_interval(offered_now, p99, cfg_.interval);
        measured_time_ += cfg_.interval;
        measured_intervals_c_->inc();
        update_derived_gauges();
      } else {
        // Drain per-interval counters so the measured phase starts clean.
        queue_->take_interval_completed();
        for (auto& bw : be_) bw->take_interval_iterations();
      }
      next_interval_ = now_ + cfg_.interval;
      interval_start = now_;
    }
  }
}

void ColocationSim::set_tenant_lanes(std::size_t max) {
  lane_cap_ = std::min(max, host_lane_limit());
}

bool ColocationSim::lanes_allowed() const {
  return lane_cap_ > 0 && !be_.empty() && !ctx_->pool_worker() &&
         sampler_->per_workload_ingest();
}

void ColocationSim::tenant_phase_on_lanes(std::optional<TenantLanes>& lanes, SimTime until) {
  // Everything a lane could allocate is sized here, on this thread: a lane
  // that allocated would grow a malloc arena of its own (DESIGN.md §14.7).
  for (auto& bw : be_) sampler_->prepare_ingest(bw->id(), bw->pending_samples());
  if (!lanes) {
    std::vector<BEWorkload*> tenants;
    for (auto& bw : be_) tenants.push_back(bw.get());
    lanes.emplace(tenants, std::min(lane_cap_, tenants.size()));
    ctx_->set_chunk_team(&*lanes);
    last_run_lanes_ = lanes->size();
    tenant_phase_wall_c_ = &metrics().counter(obs::names::kSimTenantPhaseWallUs);
    lane_join_wall_c_ = &metrics().counter(obs::names::kSimLaneJoinWallUs);
  }
  obs::WallSpan phase(nullptr, obs::names::kSimTenantPhaseWallUs, obs::names::kCatSim,
                      tenant_phase_wall_c_);
  lanes->fork();
  queue_->run_until(until);
  obs::WallSpan join(nullptr, obs::names::kSimLaneJoinWallUs, obs::names::kCatSim,
                     lane_join_wall_c_);
  lanes->join();
}

void ColocationSim::apply_contention(double lc_offered_rps) {
  const BandwidthModel& bw = cfg_.bandwidth;
  const std::size_t n = mem_->tier_count();
  if (bw.enabled) {
    // One-step lag: demand uses the previous tick's rates. BE tenants split
    // by resident access mass, the LC tenant by resident page share.
    contention_step(bw, n, bw.damping, bw_factor_, [this, n, lc_offered_rps](const auto& add) {
      for (const auto& be : be_)
        add(be->current_rate() * be->config().profile.accesses_per_iteration,
            be->tier_weights());
      TierValues lc_share{};
      const auto lc_total = static_cast<double>(mem_->workload_total(lc_->id()));
      for (TierId t = 0; lc_total > 0 && t < n - 1; ++t)
        lc_share[t] = static_cast<double>(mem_->workload_pages(lc_->id(), t)) / lc_total;
      add(lc_offered_rps * static_cast<double>(lc_->misses_per_request()), lc_share);
    });
    for (std::size_t t = 0; t < n; ++t)
      if (bw_factor_g_[t] != nullptr) bw_factor_g_[t]->set(bw_factor_[t]);
  }
  // An injected SMem latency spike multiplies tier 1's factor (not its gauge).
  const double spike = inj_ != nullptr ? inj_->smem_latency_factor() : 1.0;
  for (TierId t = 0; t < n; ++t)
    mem_->set_contention_factor(t, t == kFastestTier + 1 ? bw_factor_[t] * spike : bw_factor_[t]);
}

double ColocationSim::joint_be_objective(const std::vector<std::uint64_t>& alloc) const {
  const std::size_t n = mem_->tier_count();
  std::vector<TierValues>& split = be_split_;
  for (std::size_t i = 0; i < be_.size(); ++i)
    split[i] = be_[i]->split_at_hit(be_[i]->hit_fraction_at_pages(i < alloc.size() ? alloc[i] : 0));
  TierValues factor{}, lat{};
  factor.fill(1.0);
  const auto inflate = [&] {
    for (TierId t = 0; t < n; ++t) lat[t] = static_cast<double>(mem_->base_latency(t)) * factor[t];
  };
  for (int it = 0; it < 4; ++it) {
    inflate();
    contention_step(cfg_.bandwidth, n, 1.0, factor, [&](const auto& add) {
      for (std::size_t i = 0; i < be_.size(); ++i)
        add(be_[i]->rate_under(split[i], lat, n) *
                be_[i]->config().profile.accesses_per_iteration,
            split[i]);
    });
  }
  inflate();
  double min_np = 1.0, sum_np = 0.0;
  for (std::size_t i = 0; i < be_.size(); ++i) {
    const double np = be_[i]->rate_under(split[i], lat, n) / be_[i]->perf_full();
    min_np = std::min(min_np, np);
    sum_np += np;
  }
  return min_np + 1e-6 * sum_np;
}

void ColocationSim::record_interval(double offered_rps, Duration lc_p99, Duration interval) {
  TimePoint tp;
  tp.t_sec = to_seconds(now_);
  tp.offered_rps = offered_rps;
  tp.lc_p99_ms = static_cast<double>(lc_p99) / 1e6;
  const double interval_s = to_seconds(interval);
  tp.lc_throughput_rps = static_cast<double>(queue_->take_interval_completed()) / interval_s;
  tp.lc_fmem_ratio = mem_->fmem_usage_ratio(lc_->id());
  const auto fmem_cap = static_cast<double>(mem_->capacity(kFastestTier));
  tp.lc_fmem_share =
      static_cast<double>(mem_->workload_pages(lc_->id(), kFastestTier)) / fmem_cap;
  for (std::size_t i = 0; i < be_.size(); ++i) {
    tp.be_fmem_share.push_back(
        static_cast<double>(mem_->workload_pages(be_[i]->id(), kFastestTier)) / fmem_cap);
    const double iters = be_[i]->take_interval_iterations();
    be_measured_iters_[i] += iters;
    tp.be_throughput.push_back(iters / interval_s);
  }
  const double lc_p99_ms = tp.lc_p99_ms;
  series_.push_back(std::move(tp));
  pages_moved_measured_ = pages_moved_c_->value() - pages_moved_mark_;

  // Per-interval occupancy/latency samples, visible as counter charts in the
  // trace and as last-value gauges in metric dumps.
  metrics().gauge(obs::names::kLcFmemRatio).set(series_.back().lc_fmem_ratio);
  metrics().gauge(obs::names::kLcFmemShare).set(series_.back().lc_fmem_share);
  ctx_->trace().counter(obs::names::kEvLcFmemShare, obs::names::kCatMem, "share",
                        series_.back().lc_fmem_share);
  ctx_->trace().counter(obs::names::kEvLcP99Ms, obs::names::kCatSim, "ms", lc_p99_ms);
}

void ColocationSim::update_derived_gauges() {
  // The §5.5 overhead aggregates as derived views over the registry — kept
  // in lockstep with result() so a metrics dump is self-describing.
  const double secs = to_seconds(measured_time_);
  metrics().gauge(obs::names::kDerivedMigrationBytesPerSec)
      .set(secs > 0 ? pages_moved_measured_ * static_cast<double>(kPageSize) / secs : 0.0);
  const double intervals = measured_intervals_c_->value() - measured_intervals_mark_;
  metrics().gauge(obs::names::kDerivedPolicyWallUsPerInterval)
      .set(intervals > 0 ? (policy_wall_c_->value() - policy_wall_mark_) / intervals : 0.0);
}

void ColocationSim::reset_stats() {
  if (journal_armed_)
    journal_.push_back({SimCheckpoint::Op::Kind::kResetStats, LoadPattern::constant(0.0), 0, true});
  series_.clear();
  measured_lat_.reset();
  measured_requests_ = queue_->recorder().total_requests();
  measured_violations_ = queue_->recorder().slo_violations();
  for (auto& bw : be_) bw->take_interval_iterations();
  queue_->take_interval_completed();
  be_measured_iters_.assign(be_.size(), 0.0);
  measured_time_ = 0;
  pages_moved_mark_ = pages_moved_c_->value();
  pages_moved_measured_ = 0;
  policy_wall_mark_ = policy_wall_c_->value();
  measured_intervals_mark_ = measured_intervals_c_->value();
  update_derived_gauges();
}

SimResult ColocationSim::result() const {
  SimResult r;
  r.series = series_;
  r.lc_p99_ms = static_cast<double>(measured_lat_.percentile(99.0)) / 1e6;
  const std::uint64_t reqs = queue_->recorder().total_requests() - measured_requests_;
  const std::uint64_t viol = queue_->recorder().slo_violations() - measured_violations_;
  r.lc_completed = reqs;
  r.slo_violation_rate =
      reqs == 0 ? 0.0 : static_cast<double>(viol) / static_cast<double>(reqs);
  const double secs = to_seconds(measured_time_);
  double min_np = be_.empty() ? 0.0 : 1.0;
  for (std::size_t i = 0; i < be_.size(); ++i) {
    const double rate = secs > 0 ? be_measured_iters_[i] / secs : 0.0;
    r.be_rate.push_back(rate);
    const double np = rate / be_[i]->perf_full();
    r.be_np.push_back(np);
    r.be_total_throughput += rate;
    r.be_mean_np += np / static_cast<double>(be_.size());
    min_np = std::min(min_np, np);
  }
  r.fairness = min_np;
  // Derived views over the metrics registry (see SimResult's field comment).
  r.migration_bytes_per_sec =
      secs > 0 ? pages_moved_measured_ * static_cast<double>(kPageSize) / secs : 0.0;
  const double intervals = measured_intervals_c_->value() - measured_intervals_mark_;
  r.policy_wall_us_per_interval =
      intervals > 0 ? (policy_wall_c_->value() - policy_wall_mark_) / intervals : 0.0;
  return r;
}

void ColocationSim::persist(StateArchive& ar) {
  ar(now_, next_interval_, bw_factor_);
  ar(*mem_, *engine_, *sampler_, *lc_);
  for (auto& be : be_) ar(*be);
  ar(*queue_, *policy_);
  ar(series_, measured_lat_, measured_requests_, measured_violations_);
  ar.fixed(be_measured_iters_);
  ar(measured_time_, pages_moved_mark_, pages_moved_measured_);
  ar(ctx_->metrics());
  if (ar.loading()) {
    policy_wall_mark_ = policy_wall_c_->value();
    measured_intervals_mark_ = measured_intervals_c_->value();
  }
}

SimCheckpoint ColocationSim::snapshot() const {
  if (cfg_.shared_agent != nullptr)
    throw std::logic_error("ColocationSim::snapshot: a shared agent is not this sim's state");
  StateArchive ar;
  const_cast<ColocationSim*>(this)->persist(ar);  // saving only reads
  return {cfg_, journal_, ar.finish()};
}

std::unique_ptr<ColocationSim> ColocationSim::restore(const SimCheckpoint& cp,
                                                      obs::RunContext* ctx) {
  StateArchive ar(cp.state);  // checks the frame before paying for a boot
  auto sim = std::make_unique<ColocationSim>(cp.config, ctx);
  sim->persist(ar);
  ar.finish_load();
  sim->journal_ = cp.ops;
  return sim;
}

std::unique_ptr<ColocationSim> ColocationSim::replay(const SimCheckpoint& cp,
                                                     obs::RunContext* ctx) {
  auto sim = std::make_unique<ColocationSim>(cp.config, ctx);
  // Replaying through the public entry points re-journals each op, so the
  // replayed sim's own snapshot() equals the original's.
  for (const SimCheckpoint::Op& op : cp.ops) {
    if (op.kind == SimCheckpoint::Op::Kind::kRun)
      sim->run(op.pattern, op.duration, op.measure);
    else
      sim->reset_stats();
  }
  return sim;
}

std::string ColocationSim::fingerprint() const {
  std::ostringstream os;
  os << "t=" << now_;
  os << " used=";
  const TierId tiers = mem_->tier_count();
  for (TierId t = 0; t < tiers; ++t) os << (t ? "," : "") << mem_->used(t);
  os << " lc=";
  for (TierId t = 0; t < tiers; ++t)
    os << (t ? "," : "") << mem_->workload_pages(lc_->id(), t);
  for (std::size_t i = 0; i < be_.size(); ++i) {
    os << " be" << i << "=";
    for (TierId t = 0; t < tiers; ++t)
      os << (t ? "," : "") << mem_->workload_pages(be_[i]->id(), t);
  }
  // Per-sink per-tier bin-occupancy vectors: the PageHotness SoA state that
  // drives every promotion/demotion decision. Only non-empty bins are listed,
  // so the digest stays compact at fleet scale.
  const auto& sinks = sampler_->sinks();
  for (std::size_t s = 0; s < sinks.size(); ++s) {
    os << " h" << s << "[" << sinks[s]->tracked_pages() << "]=";
    for (std::size_t t = 0; t < sinks[s]->tier_count(); ++t)
      for (int b = 0; b < PageHotness::kBins; ++b)
        if (const std::size_t n = sinks[s]->bin_size(static_cast<TierId>(t), b); n != 0)
          os << t << ":" << b << ":" << n << ";";
  }
  return os.str();
}

}  // namespace mtat

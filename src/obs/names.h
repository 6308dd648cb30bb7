// Central name table for every metric and trace event the simulator emits.
//
// Metric and trace names used to be free-form string literals at their call
// sites, which meant a typo ("queue.arivals") silently created a fresh,
// never-read series. Every name now lives here exactly once; call sites refer
// to the constant, and `mtat_lint` (tools/lint) enforces both halves of the
// contract:
//
//  * a string literal passed to MetricsRegistry::counter()/gauge()/
//    histogram(), TraceRecorder::instant()/complete()/counter(), or WallSpan
//    is a lint error outside allowlisted files — call sites must use these
//    constants;
//  * the metric section below is cross-checked, name for name, against the
//    DESIGN.md §9 metric table (and the trace-event section against the §9
//    trace table), so code, docs, and JSON dumps cannot drift apart.
//
// The `mtat-lint: section=...` comments are machine-read by the linter; keep
// each constant inside the section it belongs to, and keep one constant per
// line. Unit suffixes follow the canonical spellings (_us, _ms, _ns, _bytes,
// _pages, _pct, _per_sec) — the linter rejects variants like _usec or
// _percent. How to add a metric: declare the constant here, add the row to
// the DESIGN.md §9 table, then use it at the call site.
#pragma once

#include <string_view>

namespace mtat::obs::names {

// mtat-lint: section=metric
inline constexpr const char* kMigrationPagesMoved = "migration.pages_moved";
inline constexpr const char* kMigrationPromotions = "migration.promotions";
inline constexpr const char* kMigrationDemotions = "migration.demotions";
inline constexpr const char* kMigrationExchanges = "migration.exchanges";
inline constexpr const char* kMigrationPagesPerTick = "migration.pages_per_tick";
inline constexpr const char* kMigrationLink0PagesMoved = "migration.link0_pages_moved";
inline constexpr const char* kMigrationLink1PagesMoved = "migration.link1_pages_moved";
inline constexpr const char* kMigrationLink2PagesMoved = "migration.link2_pages_moved";
inline constexpr const char* kPolicyWallUs = "policy.wall_us";
inline constexpr const char* kPolicyWallUsHist = "policy.wall_us_hist";
inline constexpr const char* kPpmDecideWallUs = "ppm.decide_wall_us";
inline constexpr const char* kPpmDecisions = "ppm.decisions";
inline constexpr const char* kPpmViolations = "ppm.violations";
inline constexpr const char* kPpmGuardTrips = "ppm.guard_trips";
inline constexpr const char* kPpmReward = "ppm.reward";
inline constexpr const char* kPpePlans = "ppe.plans";
inline constexpr const char* kPpePlanPages = "ppe.plan_pages";
inline constexpr const char* kRlUpdates = "rl.updates";
inline constexpr const char* kRlCriticLoss = "rl.critic_loss";
inline constexpr const char* kRlActorLoss = "rl.actor_loss";
inline constexpr const char* kRlAlpha = "rl.alpha";
inline constexpr const char* kQueueArrivals = "queue.arrivals";
inline constexpr const char* kQueueCompleted = "queue.completed";
inline constexpr const char* kQueueBacklogPeak = "queue.backlog_peak";
inline constexpr const char* kSimIntervals = "sim.intervals";
inline constexpr const char* kSimMeasuredIntervals = "sim.measured_intervals";
inline constexpr const char* kBwFmemFactor = "bw.fmem_factor";
inline constexpr const char* kBwSmemFactor = "bw.smem_factor";
inline constexpr const char* kLcFmemRatio = "lc.fmem_ratio";
inline constexpr const char* kLcFmemShare = "lc.fmem_share";
inline constexpr const char* kMtatLcQuotaPages = "mtat.lc_quota_pages";
inline constexpr const char* kDerivedMigrationBytesPerSec = "derived.migration_bytes_per_sec";
inline constexpr const char* kDerivedPolicyWallUsPerInterval =
    "derived.policy_wall_us_per_interval";
inline constexpr const char* kFaultSamplesDropped = "fault.samples_dropped";
inline constexpr const char* kFaultSamplesCorrupted = "fault.samples_corrupted";
inline constexpr const char* kFaultMigrationFailures = "fault.migration_failures";
inline constexpr const char* kFaultMigrationRollbacks = "fault.migration_rollbacks";
inline constexpr const char* kFaultRlActionsCorrupted = "fault.rl_actions_corrupted";
inline constexpr const char* kMigrationRetries = "migration.retries";
inline constexpr const char* kMigrationBackoffTicks = "migration.backoff_ticks";
inline constexpr const char* kPpmNonfiniteActions = "ppm.nonfinite_actions";
inline constexpr const char* kRlRejectedTransitions = "rl.rejected_transitions";
inline constexpr const char* kPpePlansAbandoned = "ppe.plans_abandoned";
inline constexpr const char* kMtatMode = "mtat.mode";
inline constexpr const char* kMtatModeTransitions = "mtat.mode_transitions";
inline constexpr const char* kClusterNodes = "cluster.nodes";
inline constexpr const char* kClusterTenants = "cluster.tenants";
inline constexpr const char* kClusterRounds = "cluster.rounds";
inline constexpr const char* kClusterPlacements = "cluster.placements";
inline constexpr const char* kClusterRebalancedTenants = "cluster.rebalanced_tenants";
inline constexpr const char* kClusterOfferedRps = "cluster.offered_rps";
inline constexpr const char* kClusterSloCompliancePct = "cluster.slo_compliance_pct";
inline constexpr const char* kClusterTailP99Ms = "cluster.tail_p99_ms";
inline constexpr const char* kClusterFmemUtilPct = "cluster.fmem_util_pct";
inline constexpr const char* kClusterNodeP99Ms = "cluster.node_p99_ms";
inline constexpr const char* kClusterNodeSloViolationPct = "cluster.node_slo_violation_pct";
inline constexpr const char* kClusterNodeFmemUtilPct = "cluster.node_fmem_util_pct";
inline constexpr const char* kClusterNodeOfferedRps = "cluster.node_offered_rps";
inline constexpr const char* kClusterNodeTenants = "cluster.node_tenants";
inline constexpr const char* kFaultNodeCrashes = "fault.node_crashes";
inline constexpr const char* kFaultNodeStragglers = "fault.node_stragglers";
inline constexpr const char* kFaultNodeBlackouts = "fault.node_blackouts";
inline constexpr const char* kClusterFailoverSuspectedNodes = "cluster.failover_suspected_nodes";
inline constexpr const char* kClusterFailoverEvacuations = "cluster.failover_evacuations";
inline constexpr const char* kClusterFailoverQueuedTenants = "cluster.failover_queued_tenants";
inline constexpr const char* kClusterFailoverRetries = "cluster.failover_retries";
inline constexpr const char* kClusterFailoverWarmRestarts = "cluster.failover_warm_restarts";
inline constexpr const char* kClusterFailoverColdRestarts = "cluster.failover_cold_restarts";
inline constexpr const char* kClusterFailoverPlacementMode = "cluster.failover_placement_mode";
inline constexpr const char* kPerfSimStepsPerSec = "perf.sim_steps_per_sec";
inline constexpr const char* kPerfSamplerIngestPerSec = "perf.sampler_ingest_per_sec";
inline constexpr const char* kPerfHotnessRecordAgePerSec = "perf.hotness_record_age_per_sec";
inline constexpr const char* kPerfHotnessPullPerSec = "perf.hotness_pull_per_sec";
inline constexpr const char* kPerfMigrationsPerSec = "perf.migrations_per_sec";
inline constexpr const char* kPerfSacInferencePerSec = "perf.sac_inference_per_sec";
inline constexpr const char* kPerfClusterQuarterStepsPerSec = "perf.cluster_quarter_steps_per_sec";
inline constexpr const char* kPerfClusterHalfStepsPerSec = "perf.cluster_half_steps_per_sec";
inline constexpr const char* kPerfClusterFullStepsPerSec = "perf.cluster_full_steps_per_sec";
// mtat-lint: section=trace-event
inline constexpr const char* kEvInterval = "interval";
inline constexpr const char* kEvMigration = "migration";
inline constexpr const char* kEvPolicyOnInterval = "policy.on_interval";
inline constexpr const char* kEvPpmDecide = "ppm.decide";
inline constexpr const char* kEvPpmDecision = "ppm.decision";
inline constexpr const char* kEvPpmGuardTrip = "ppm.guard_trip";
inline constexpr const char* kEvPpePlan = "ppe.plan";
inline constexpr const char* kEvPpePlanExec = "ppe.plan_exec";
inline constexpr const char* kEvRlUpdate = "rl.update";
inline constexpr const char* kEvQueueOverload = "queue.overload";
inline constexpr const char* kEvLcFmemShare = "lc_fmem_share";
inline constexpr const char* kEvLcP99Ms = "lc_p99_ms";
inline constexpr const char* kEvMigrationFault = "migration.fault";
inline constexpr const char* kEvMigrationBackoff = "migration.backoff";
inline constexpr const char* kEvMigrationRetry = "migration.retry";
inline constexpr const char* kEvPpePlanAbandon = "ppe.plan_abandon";
inline constexpr const char* kEvMtatModeChange = "mtat.mode_change";
inline constexpr const char* kEvClusterRound = "cluster.round";
inline constexpr const char* kEvClusterEpoch = "cluster.epoch";
inline constexpr const char* kEvClusterFailover = "cluster.failover";
inline constexpr const char* kEvNodeFault = "fault.node";
// mtat-lint: section=trace-category
inline constexpr const char* kCatSim = "sim";
inline constexpr const char* kCatMem = "mem";
inline constexpr const char* kCatPolicy = "policy";
inline constexpr const char* kCatRl = "rl";
inline constexpr const char* kCatQueue = "queue";
// mtat-lint: section=end

/// Every metric name above, for exhaustive sweeps (determinism regression,
/// exporter tests). Kept in declaration order.
inline constexpr const char* kAllMetricNames[] = {
    kMigrationPagesMoved, kMigrationPromotions, kMigrationDemotions, kMigrationExchanges,
    kMigrationPagesPerTick, kMigrationLink0PagesMoved, kMigrationLink1PagesMoved,
    kMigrationLink2PagesMoved, kPolicyWallUs, kPolicyWallUsHist, kPpmDecideWallUs,
    kPpmDecisions, kPpmViolations, kPpmGuardTrips, kPpmReward, kPpePlans, kPpePlanPages,
    kRlUpdates, kRlCriticLoss, kRlActorLoss, kRlAlpha, kQueueArrivals, kQueueCompleted,
    kQueueBacklogPeak, kSimIntervals, kSimMeasuredIntervals, kBwFmemFactor, kBwSmemFactor,
    kLcFmemRatio, kLcFmemShare, kMtatLcQuotaPages, kDerivedMigrationBytesPerSec,
    kDerivedPolicyWallUsPerInterval, kFaultSamplesDropped, kFaultSamplesCorrupted,
    kFaultMigrationFailures, kFaultMigrationRollbacks, kFaultRlActionsCorrupted,
    kMigrationRetries, kMigrationBackoffTicks, kPpmNonfiniteActions, kRlRejectedTransitions,
    kPpePlansAbandoned, kMtatMode, kMtatModeTransitions, kClusterNodes, kClusterTenants,
    kClusterRounds, kClusterPlacements, kClusterRebalancedTenants, kClusterOfferedRps,
    kClusterSloCompliancePct, kClusterTailP99Ms, kClusterFmemUtilPct, kClusterNodeP99Ms,
    kClusterNodeSloViolationPct, kClusterNodeFmemUtilPct, kClusterNodeOfferedRps,
    kClusterNodeTenants, kFaultNodeCrashes, kFaultNodeStragglers,
    kFaultNodeBlackouts, kClusterFailoverSuspectedNodes, kClusterFailoverEvacuations,
    kClusterFailoverQueuedTenants, kClusterFailoverRetries, kClusterFailoverWarmRestarts,
    kClusterFailoverColdRestarts, kClusterFailoverPlacementMode, kPerfSimStepsPerSec,
    kPerfSamplerIngestPerSec, kPerfHotnessRecordAgePerSec, kPerfHotnessPullPerSec,
    kPerfMigrationsPerSec, kPerfSacInferencePerSec, kPerfClusterQuarterStepsPerSec,
    kPerfClusterHalfStepsPerSec, kPerfClusterFullStepsPerSec};

/// Wall-clock-domain metrics: the only registry entries allowed to differ
/// between two same-seed runs (they measure host compute time, not simulated
/// behaviour). The determinism regression test skips exactly these. The whole
/// perf.* family is wall-derived by construction — every one is an ops/s
/// throughput rated against host wall time by bench/perf_core.
inline constexpr bool is_wall_time_metric(std::string_view name) {
  return name.find("wall") != std::string_view::npos ||
         name.substr(0, 5) == "perf.";  // mtat-lint: allow(perf-name)
}

}  // namespace mtat::obs::names

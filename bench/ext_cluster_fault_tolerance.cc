// Extension: fleet-level fault tolerance (DESIGN.md §17). Sweeps placement
// policy x fleet fault-storm intensity x restart mode through ClusterSim's
// failure domain: per storm epoch the seed-deterministic injector crashes,
// straggles, and blacks out nodes; the health watchdog suspects silent nodes
// (3-down/5-up hysteresis); their tenants evacuate through the placement
// policy under admission control; and crashed nodes restart warm (restoring
// their deterministic ColocationSim checkpoint) or cold (fresh boot straight
// into traffic — the cold-page flood). Reports fleet SLO compliance during
// the storm, the post-storm time-to-recover, and the failover event counts.
//
// Expected shape: the intensity-0 rows are the healthy reference on the same
// reduced fleet (an inert plan is the classic two-round run). Under
// the storm, telemetry-aware placement routes demand away from sick nodes and
// keeps the highest compliance, bin-packing is blind to health but still
// spreads load, and random eats the storm raw: telemetry >= bin_packing >=
// random. Warm restarts recover in fewer epochs than cold ones — a restored
// checkpoint resumes with its hot pages already promoted, a cold boot pays
// the flood. The whole grid is bit-identical across MTAT_JOBS and reruns.
#include <algorithm>

#include "bench/cluster_env.h"
#include "common/csv.h"

using namespace mtat;
using namespace mtat::bench;

int main() {
  const Scale sc = scale_from_env();
  banner("ext_cluster_fault_tolerance",
         "extension: fleet-level failure domain (DESIGN.md §17)");
  experiments::ParallelRunner runner = make_runner();
  const LCConfig redis = scaled_lc_config(redis_config(), sc);
  const double peak = fmem_all_peak_krps(sc, redis, &runner, /*n_be=*/2);
  cluster::ClusterConfig cc = make_cluster_config(sc, redis, peak);
  // A faulted run costs several healthy runs (plan.epochs windows plus the
  // history each straggler replays), so the grid runs on a reduced fleet
  // with short windows; MTAT_NODES still overrides via the env.
  if (!Env::get().nodes) cc.nodes = std::max(8, cc.nodes / 10);
  cc.settle = seconds(1);
  cc.probe_window = seconds(1);
  cc.measure_window = seconds(2);
  std::printf("fleet: %d nodes x (1 LC + 2 BE), node capacity %.2f KRPS, %d tenants\n",
              cc.nodes, peak, cc.tenants > 0 ? cc.tenants : 4 * cc.nodes);

  struct Cell {
    std::string placement;
    double intensity = 0;   // 0 = healthy (the inert plan)
    bool warm = true;
  };
  std::vector<Cell> cells;
  for (const std::string& name : cluster::all_placement_names()) {
    cells.push_back({name, 0.0, true});
    for (double intensity : {0.6, 1.0})
      for (bool warm : {true, false}) cells.push_back({name, intensity, warm});
  }

  // `restart` is numeric: 1 = warm, 0 = cold, -1 = healthy row (inert plan).
  CsvWriter csv("ext_cluster_fault_tolerance.csv",
                {"placement", "intensity", "restart", "storm_slo_pct", "final_slo_pct",
                 "recovery_epochs", "crashes", "stragglers", "blackouts", "evacuations",
                 "retries", "queued_final", "warm_restarts", "cold_restarts",
                 "rebalanced_tenants"});

  std::printf("%-12s %9s %7s %8s %8s %8s %7s %6s %6s %6s %6s\n", "placement", "intensity",
              "restart", "storm%", "final%", "recover", "crash", "strag", "black", "evac",
              "moved");
  // Cells run serially at the top level — ClusterSim::run drives the shared
  // runner's node fan-out itself (run_all is non-reentrant). Each cell gets a
  // fresh ClusterSim from the same geometry and seed, so every policy and
  // storm faces the identical tenant population and node seeds.
  for (const Cell& cell : cells) {
    cluster::ClusterConfig cfg = cc;
    if (cell.intensity > 0) {
      faults::ClusterFaultPlan plan = faults::ClusterFaultPlan::storm(cell.intensity);
      plan.warm_restart = cell.warm;
      // A longer horizon than the storm() default: four storm epochs spread
      // crashes past the first checkpoint (so warm restarts really restore
      // state — a node that dies before completing an epoch has nothing to
      // warm from), and six recovery epochs give the watchdog's 5-clean
      // readmission ladder room to finish, making time-to-recover
      // measurable. The default 2-epoch outage stays below the 3-miss
      // suspicion threshold, so a lone crash restarts into live traffic
      // (where warm vs cold shows) while blackout chains — boosted here —
      // drive the suspicion/evacuation path.
      plan.epochs = 10;
      plan.storm_epochs = 4;
      plan.node_blackout_prob = 0.4 * cell.intensity;
      cfg.faults = plan;
    } else {
      cfg.faults = {};  // healthy reference row, whatever the env says
    }
    const auto policy = cluster::make_placement(cell.placement);
    cluster::ClusterSim sim(cfg);
    const cluster::ClusterResult r = sim.run(*policy, &runner);

    // Storm compliance: mean over the storm epochs; recovery: epochs after
    // the storm until compliance first reaches 99% of the final value.
    const int storm_epochs = cell.intensity > 0 ? cfg.faults.storm_epochs : 0;
    double storm_slo = r.slo_compliance_pct;
    int recovery = 0;
    if (cell.intensity > 0 && !r.epochs.empty()) {
      double sum = 0;
      int n = 0;
      for (const cluster::EpochStats& es : r.epochs)
        if (es.epoch < storm_epochs) {
          sum += es.slo_compliance_pct;
          ++n;
        }
      if (n > 0) storm_slo = sum / n;
      const double final_slo = r.epochs.back().slo_compliance_pct;
      recovery = -1;
      for (const cluster::EpochStats& es : r.epochs) {
        if (es.epoch < storm_epochs) continue;
        if (es.slo_compliance_pct >= 0.99 * final_slo) {
          recovery = es.epoch - storm_epochs;
          break;
        }
      }
    }

    const char* restart = cell.intensity > 0 ? (cell.warm ? "warm" : "cold") : "-";
    csv.row(cell.placement,
            {cell.intensity, cell.intensity > 0 ? (cell.warm ? 1.0 : 0.0) : -1.0,
             storm_slo, r.slo_compliance_pct, static_cast<double>(recovery),
             static_cast<double>(r.node_crashes), static_cast<double>(r.node_stragglers),
             static_cast<double>(r.node_blackouts), static_cast<double>(r.evacuations),
             static_cast<double>(r.failover_retries), static_cast<double>(r.unplaced_tenants),
             static_cast<double>(r.warm_restarts), static_cast<double>(r.cold_restarts),
             static_cast<double>(r.rebalanced_tenants)});
    std::printf("%-12s %9.2f %7s %7.2f%% %7.2f%% %8d %7d %6d %6d %6d %6d\n",
                cell.placement.c_str(), cell.intensity, restart, storm_slo,
                r.slo_compliance_pct, recovery, r.node_crashes, r.node_stragglers,
                r.node_blackouts, r.evacuations, r.rebalanced_tenants);
  }
  std::printf(
      "\nexpected: telemetry >= bin_packing >= random on storm compliance; warm and cold "
      "restarts diverge after the first post-checkpoint crash; intensity 0 is the healthy "
      "reference (inert plan)\n");
  return 0;
}

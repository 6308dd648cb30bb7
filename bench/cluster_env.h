// Fleet-scale presets for the cluster benches (ext_cluster_slo, perf_cluster).
//
// Layers cluster geometry on top of the node-level Scale preset: how many
// simulated nodes, and how long the settle/probe/measure windows run. Sized
// so MTAT_SCALE=smoke still fields a hundreds-of-nodes fleet in CI-grade
// wall time (short windows, two BE tenants per node) while small/large grow
// the fleet and the windows together. MTAT_NODES overrides the node count at
// any scale (see bench/env.h).
#pragma once

#include "bench/harness.h"
#include "cluster/cluster_sim.h"

namespace mtat::bench {

/// Parse MTAT_CLUSTER_FAULTS into a fleet-level fault plan. Empty env means
/// a healthy fleet (the inert plan); a malformed spec warns on stderr and
/// also yields the inert plan — the bench then runs healthy rather than
/// under a plan the user didn't ask for.
inline faults::ClusterFaultPlan cluster_faults_from_env() {
  const std::string& spec = Env::get().cluster_faults;
  if (spec.empty()) return {};
  const auto plan = faults::ClusterFaultPlan::from_spec(spec);
  if (!plan.has_value())
    std::fprintf(stderr,
                 "warning: invalid MTAT_CLUSTER_FAULTS=%s (expected "
                 "storm[:intensity][:warm|:cold]); running healthy\n",
                 spec.c_str());
  return plan.value_or(faults::ClusterFaultPlan{});
}

/// Cluster geometry for the scale preset in effect, with `lc` (already
/// scaled) as every node's LC tenant and `node_capacity_krps` as the static
/// serving-capacity estimate handed to the placement policies. The node
/// template runs a lightweight baseline tiering policy by default — the
/// cluster benches compare *placement* policies across a uniform fleet, not
/// node-level tiering, and an RL-policy fleet would need per-node training.
inline cluster::ClusterConfig make_cluster_config(const Scale& sc, const LCConfig& lc,
                                                  double node_capacity_krps,
                                                  PolicyKind node_policy = PolicyKind::kMemtis) {
  cluster::ClusterConfig cc;
  const std::string preset = scale_preset_from_env();
  if (preset == "smoke") {
    cc.nodes = 120;
    cc.settle = seconds(1);
    cc.probe_window = seconds(2);
    cc.measure_window = seconds(3);
  } else if (preset == "large") {
    cc.nodes = 400;
    cc.settle = seconds(2);
    cc.probe_window = seconds(5);
    cc.measure_window = seconds(10);
  } else {
    cc.nodes = 200;
    cc.settle = seconds(2);
    cc.probe_window = seconds(3);
    cc.measure_window = seconds(5);
  }
  if (const auto n = Env::get().nodes) cc.nodes = *n;
  cc.node = make_sim_config(sc, lc, node_policy, /*n_be=*/2);
  cc.node_capacity_krps = node_capacity_krps;
  cc.faults = cluster_faults_from_env();
  return cc;
}

}  // namespace mtat::bench

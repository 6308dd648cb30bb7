// Fixture: fault.* and cluster.* names spelled as literals. The strict-name
// rule flags them anywhere on a line — a known name at a registry call site,
// a known name in a plain comparison (which metric-name would miss), and a
// typo'd name that names.h has never heard of — in each family: fault.*,
// fault.node_* (injected node events), cluster.* and cluster.failover_*
// (watchdog, evacuation and restart outcomes).
void bad(mtat::obs::MetricsRegistry& reg, const std::string& row) {
  reg.counter("fault.samples_dropped").inc();
  if (row == "fault.migration_failures") return;
  reg.counter("fault.sample_drops").inc();
  reg.counter("fault.node_crashes").inc();
  if (row == "fault.node_stragglers") return;
  reg.counter("fault.node_crahses").inc();
  reg.gauge("cluster.node_p99_ms").set(1.0);
  if (row == "cluster.slo_compliance_pct") return;
  reg.gauge("cluster.slo_complaince_pct").set(0.0);
  reg.counter("cluster.failover_evacuations").inc();
  if (row == "cluster.failover_suspected_nodes") return;
  reg.counter("cluster.failover_evacutions").inc();
}

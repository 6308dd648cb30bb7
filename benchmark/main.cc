// mtat_benchmark: the benchmark of record (see benchmark/README.md).
//
//   mtat_benchmark --workload node_mtat|fleet_healthy|fleet_storm --seed N
//                  --seconds S --trace 0|1 [--source-digest HEX]
//   mtat_benchmark --selftest
//
// The last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}
// with the end-to-end metrics on --trace 0 and the per-layer metrics on
// --trace 1. Any MTAT_* environment variable makes the benchmark refuse to
// run: those knobs reconfigure the simulator behind the benchmark's back.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "obs/manifest.h"
#include "obs/names.h"

extern char** environ;

namespace mtat::record {

Tracer::Tracer(bool enabled) : origin_(std::chrono::steady_clock::now()) {
  if (enabled) rec_.enable(std::size_t{1} << 14);
}

double Tracer::end_span(const char* name, std::int64_t start_ns) {
  const std::int64_t end = now_ns();
  rec_.complete(name, "bench", static_cast<SimTime>(start_ns),
                static_cast<Duration>(end - start_ns));
  return static_cast<double>(end - start_ns) * 1e-9;
}

double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

// End-to-end metrics, printed for every workload on --trace 0.
constexpr MetricSpec kEndToEnd[] = {
    {"sim_s_per_wall_s", "node-s/s"},   {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},            {"interval_wall_ms_p50", "ms"},
    {"interval_wall_ms_p99", "ms"},     {"slo_compliance_pct", "%"},
    {"be_fairness", "ratio"},
};

// Per-layer metrics, printed for every workload on --trace 1.
constexpr MetricSpec kPerLayer[] = {
    {"sim.boot_ms", "ms"},
    {"sim.tick_self_us", "us"},
    {"sim.on_interval_us_p50", "us"},
    {"sim.on_interval_us_p99", "us"},
    {"sim.restore_ms_per_node_s", "ms/node-s"},
    {"sim.runner_spec_overhead_us", "us"},
    {"sim.unattributed_pct", "%"},
    {"core.ppm_decide_us_p50", "us"},
    {"core.ppm_decide_us_p99", "us"},
    {"core.ppm_decisions", "count"},
    {"core.ppm_guard_trips", "count"},
    {"core.ppe_plans", "count"},
    {"core.ppe_plan_pages", "pages"},
    {"core.sa_anneal_us", "us"},
    {"core.sa_iterations", "count"},
    {"rl.updates", "count"},
    {"rl.update_us", "us"},
    {"rl.act_us", "us"},
    {"telemetry.record_age_ns", "ns"},
    {"telemetry.pull_ns", "ns"},
    {"telemetry.ingest_ns", "ns"},
    {"policy.memtis_tick_us", "us"},
    {"mem.pages_moved", "pages"},
    {"mem.promotions", "pages"},
    {"mem.demotions", "pages"},
    {"mem.migrate_ns", "ns"},
    {"loadgen.requests", "count"},
    {"loadgen.backlog_peak", "count"},
    {"loadgen.request_ns", "ns"},
    {"loadgen.lc_p99_ms", "sim-ms"},
    {"workloads.be_tick_us", "us"},
    {"cluster_sim.run_s", "s"},
    {"cluster_sim.node_epochs", "count"},
    {"cluster_sim.wall_ms_per_node_epoch", "ms"},
    {"cluster_sim.useful_fraction", "ratio"},
    {"placement.calls", "count"},
    {"placement.place_us", "us"},
    {"cluster_sim.evacuations", "count"},
    {"cluster_sim.warm_restarts", "count"},
    {"cluster_sim.failover_retries", "count"},
    {"cluster_sim.unplaced_tenants", "count"},
    {"faults.node_crashes", "count"},
    {"faults.node_stragglers", "count"},
    {"faults.node_blackouts", "count"},
    {"obs.trace_overhead_pct", "%"},
};

bool valid_workload(const std::string& w) {
  return w == "node_mtat" || w == "fleet_healthy" || w == "fleet_storm";
}

Observations run_workload(const Options& opt, Tracer& tr) {
  if (opt.workload == "node_mtat") return run_node_mtat(opt, tr);
  return run_fleet(opt, tr, opt.workload == "fleet_storm");
}

/// Attribute the run's wall time layer by layer: span and registry rows
/// measured in the run, probe rows as cost per operation times the run's own
/// operation count. What no row covers is sim.unattributed_pct.
void attribute_wall(const Options& opt, std::map<std::string, double>& L) {
  std::vector<std::pair<std::string, double>> rows;  // seconds
  double wall = 0;
  if (opt.workload == "node_mtat") {
    wall = L.at("sim.run_wall_s");
    rows = {
        {"policy on_interval (reg policy.wall_us)",
         L.at("sim.policy_interval_us_total") * 1e-6},
        {"BE ticks (probe x ticks x tenants)",
         L.at("workloads.be_tick_us") * L.at("sim.be_ticks") * 1e-6},
        {"LC queue (probe x queue.arrivals)",
         L.at("loadgen.request_ns") * L.at("loadgen.requests") * 1e-9},
        {"migration (probe x pages moved)",
         L.at("mem.migrate_ns") * L.at("mem.pages_moved") * 1e-9},
    };
  } else {
    // Node work runs on the shard workers; the cluster thread's own work
    // (placement, watchdog, merge) does not.
    const double jobs = kFleetJobs;
    wall = L.at("cluster_sim.run_wall_mean_s");
    rows = {
        {"placement (in-place timing wrapper)", L.at("placement.wall_s_per_run")},
        {"node boots (probe x node-epochs / jobs)",
         L.at("sim.boot_ms") * 1e-3 * L.at("cluster_sim.node_epochs") / jobs},
        {"node simulation (probe x node_sim_seconds / jobs)",
         L.at("probe.node_wall_ms_per_node_s") * 1e-3 * L.at("cluster_sim.node_sim_seconds") /
             jobs},
    };
  }
  double covered = 0;
  std::printf("breakdown of %.4f s %s wall:\n", wall,
              opt.workload == "node_mtat" ? "run()" : "ClusterSim::run");
  for (const auto& [name, s] : rows) {
    covered += s;
    std::printf("  %-52s %10.4f s %6.2f%%\n", name.c_str(), s, 100.0 * s / wall);
  }
  std::printf("  %-52s %10.4f s %6.2f%%\n", "unattributed", wall - covered,
              100.0 * (wall - covered) / wall);
  std::printf("  %-52s %10.4f s %6.2f%%\n", "total", wall, 100.0);
  L["sim.unattributed_pct"] = 100.0 * (wall - covered) / wall;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<std::pair<MetricSpec, double>>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [spec, value] : metrics) {
    os << (first ? "" : ", ") << '"' << spec.name << "\": {\"value\": " << value
       << ", \"unit\": \"" << spec.unit << "\"}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int run_benchmark(const Options& opt, const std::string& source_digest) {
  std::filesystem::create_directories(kOutDir);
  const std::string out_prefix = std::string(kOutDir) + "/" + opt.workload;
  obs::RunManifest m;
  m.tool = "mtat_benchmark";
  m.scale = "custom";
  m.seed = opt.seed;
  m.train_epochs = opt.workload == "node_mtat" ? 4 : -1;
  m.add("workload", opt.workload);
  m.add("trace", opt.trace ? "1" : "0");
  m.add("seconds", std::to_string(opt.seconds));
  m.add("workers", std::to_string(opt.workload == "node_mtat" ? 1 : kFleetJobs));
  m.add("nproc", std::to_string(std::thread::hardware_concurrency()));
  m.add("build_type", MTAT_BENCH_BUILD_TYPE);
  m.add("source_digest", source_digest);
  std::ostringstream manifest;
  m.write_json(manifest);
  std::printf("manifest %s\n", manifest.str().c_str());
  m.write_file(out_prefix + (opt.trace ? ".traced" : "") + ".manifest.json");

  Tracer tr(opt.trace);
  Observations ob = run_workload(opt, tr);
  for (const std::string& n : ob.notes) std::printf("%s\n", n.c_str());
  std::printf("digest %s seed %llu %s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), ob.digest.c_str());
  const double failed_pct =
      ob.attempted > 0 ? 100.0 * static_cast<double>(ob.failed) / static_cast<double>(ob.attempted)
                       : 100.0;
  std::printf("failed_pct %.6f (%llu of %llu operations)\n", failed_pct,
              static_cast<unsigned long long>(ob.failed),
              static_cast<unsigned long long>(ob.attempted));
  std::printf("interval samples %zu for p50 (least-disturbed wall per repeated unit), %zu for "
              "p99, set-up repetitions %zu\n",
              ob.interval_wall_ms.size(), ob.interval_tail_ms.size(), ob.setup_s.size());

  std::vector<std::pair<MetricSpec, double>> out;
  if (!opt.trace) {
    const double values[] = {
        ob.sim_s_per_wall_s,
        median(ob.setup_s),
        peak_rss_mib(),
        percentile(ob.interval_wall_ms, 50),
        percentile(ob.interval_tail_ms, 99),
        ob.slo_compliance_pct,
        ob.be_fairness,
    };
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i)
      out.emplace_back(kEndToEnd[i], values[i]);
  } else {
    ob.layer["loadgen.lc_p99_ms"] = ob.lc_p99_ms;
    run_probes(opt, tr, ob.layer);
    attribute_wall(opt, ob.layer);
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = ob.layer.find(spec.name);
      if (it == ob.layer.end()) {
        std::fprintf(stderr, "internal error: no value for %s\n", spec.name);
        return 1;
      }
      out.emplace_back(spec, it->second);
    }
    const std::string path = out_prefix + ".trace.json";
    std::ofstream trace_out(path);
    tr.recorder().write_chrome_json(trace_out);
    std::printf("trace: %zu spans written to %s\n", tr.recorder().size(), path.c_str());
  }
  bool finite = true;
  for (const auto& [spec, v] : out) finite = finite && std::isfinite(v);
  const bool correct = ob.failed == 0 && ob.attempted > 0 && finite && !ob.digest.empty();
  print_result(correct, ob.attempted, ob.failed, out);
  return 0;
}

/// The benchmark's own tests, at self-test size.
int selftest() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };
  Options opt;
  opt.tiny = true;
  opt.seconds = 0;
  opt.seed = 11;
  Tracer tr(false);

  for (const char* w : {"node_mtat", "fleet_healthy", "fleet_storm"}) {
    opt.workload = w;
    const Observations a = run_workload(opt, tr);
    const Observations b = run_workload(opt, tr);
    expect(!a.digest.empty() && a.digest == b.digest,
           (std::string(w) + ": same seed gives the same digest").c_str());
    expect(a.failed == 0 && a.attempted > 0, (std::string(w) + ": no failed operation").c_str());
  }

  // fleet_storm is bit-identical at 1 and 2 shard workers.
  const cluster::ClusterConfig cc = fleet_config(/*storm=*/true, 11, /*tiny=*/true);
  const auto policy = cluster::make_placement("telemetry");
  std::string digests[2];
  cluster::ClusterResult storm;
  std::vector<cluster::TenantStream> tenants;
  double placements = 0;
  for (int jobs = 1; jobs <= 2; ++jobs) {
    obs::RunContext ctx(obs::RunContext::TraceMode::kPrivate);
    cluster::ClusterSim cs(cc, &ctx);
    experiments::ParallelRunner runner(jobs);
    storm = cs.run(*policy, &runner);
    digests[jobs - 1] = digest_fleet(storm);
    tenants = cs.tenants();
    placements = counter(ctx.metrics(), obs::names::kClusterPlacements);
  }
  expect(digests[0] == digests[1], "fleet_storm: same digest at 1 and 2 workers");
  expect(storm.node_crashes + storm.node_stragglers + storm.node_blackouts > 0,
         "fleet_storm: the storm injects faults at self-test size");

  // Corrupted results are counted as failed operations.
  const std::size_t n_be = cc.node.be.size();
  expect(fleet_failed_node_epochs(storm, tenants, placements, n_be) == 0,
         "fleet_storm: the clean result passes every check");
  cluster::ClusterResult bad = storm;
  bad.epochs[1].offered_krps *= 1.01;
  expect(fleet_failed_node_epochs(bad, tenants, placements, n_be) ==
             static_cast<std::uint64_t>(bad.epochs[1].alive_nodes + bad.epochs[1].crashed_nodes),
         "corrupted epoch demand fails that epoch's node-epochs");
  bad = storm;
  expect(fleet_failed_node_epochs(bad, tenants, placements + 1, n_be) == fleet_node_epochs(bad),
         "a lost placement fails every node-epoch");
  bad = storm;
  bad.node_sim_seconds = 0;
  expect(fleet_failed_node_epochs(bad, tenants, placements, n_be) == 1,
         "node_sim_seconds below useful work fails one operation");
  bad = storm;
  const auto ran = std::find_if(bad.nodes.begin(), bad.nodes.end(), [](const auto& nr) {
    return nr.ran && !nr.sim.series.empty();
  });
  if (ran != bad.nodes.end()) ran->sim.series.back().lc_fmem_share = 1.5;
  expect(ran != bad.nodes.end() && fleet_failed_node_epochs(bad, tenants, placements, n_be) == 1,
         "an FMem share above 1 fails its node's operation");

  TimePoint tp;
  tp.t_sec = 3;
  tp.lc_fmem_share = 0.5;
  tp.lc_fmem_ratio = 0.4;
  tp.be_fmem_share = {0.2, 0.2};
  tp.be_throughput = {1, 1};
  expect(check_time_point(tp, 2, 3.0) == 0, "a valid TimePoint passes");
  TimePoint over = tp;
  over.be_fmem_share[1] = 0.4;
  expect(check_time_point(over, 2, 3.0) > 0, "FMem shares summing above 1 fail");
  TimePoint nan_tp = tp;
  nan_tp.lc_throughput_rps = std::nan("");
  expect(check_time_point(nan_tp, 2, 3.0) > 0, "a NaN field fails");
  expect(check_time_point(tp, 2, 4.0) > 0, "a TimePoint at the wrong time fails");

  std::printf("%s: %d failure(s)\n", failures == 0 ? "selftest passed" : "selftest FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}

bool parse_args(int argc, char** argv, Options& opt, std::string& source_digest, bool& self) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") {
      self = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (a == "--workload") opt.workload = v;
      else if (a == "--seed") opt.seed = std::stoull(v);
      else if (a == "--seconds") opt.seconds = std::stod(v);
      else if (a == "--trace") opt.trace = v == "1";
      else if (a == "--source-digest") source_digest = v;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return self || (valid_workload(opt.workload) && opt.seconds >= 0);
}

}  // namespace

}  // namespace mtat::record

int main(int argc, char** argv) {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "MTAT_", 5) == 0) {
      std::fprintf(stderr,
                   "refusing to run: %s is set; MTAT_* variables reconfigure the simulator "
                   "behind the benchmark's explicit configs\n",
                   *e);
      return 2;
    }
  }
  mtat::record::Options opt;
  std::string source_digest = "unknown";
  bool self = false;
  if (!mtat::record::parse_args(argc, argv, opt, source_digest, self)) {
    std::fprintf(stderr,
                 "usage: mtat_benchmark --workload node_mtat|fleet_healthy|fleet_storm "
                 "--seed N --seconds S --trace 0|1 [--source-digest HEX]\n"
                 "       mtat_benchmark --selftest\n");
    return 2;
  }
  if (self) return mtat::record::selftest();
  return mtat::record::run_benchmark(opt, source_digest);
}

#include "workloads/be/be_suite.h"

#include <memory>
#include <stdexcept>
#include <utility>

#include "common/memo.h"
#include "workloads/graph/graph_layout.h"
#include "workloads/graph/kernels.h"
#include "workloads/xsbench/xsbench.h"

namespace mtat {
namespace {

int graph_scale(BEScale s) { return s == BEScale::kTest ? 10 : 17; }

/// Profile extraction runs the real kernel, which is the expensive part of
/// building a BE config, so raw profiles are memoized per (workload, scale).
/// The memo keeps each alive for the process, so its address identifies it:
/// make() memoizes each stretched footprint's tables under (profile, pages).
std::shared_ptr<const PageProfile> graph_profile(
    const std::string& name, BEScale scale,
    const std::function<KernelStats(GraphLayout&)>& run, bool rmat) {
  return memoized<PageProfile>(name + (scale == BEScale::kTest ? "/test" : "/default"), [&] {
    Rng rng(name == "sssp" ? 11 : name == "bfs" ? 22 : 33);
    const int sc = graph_scale(scale);
    const Graph g = rmat ? make_rmat_graph(sc, 16, rng)
                         : make_uniform_graph(1ull << sc, 16ull << sc, rng);
    PageProfile prof = extract_profile(GraphLayout::required_bytes(g), [&](AddressSpace& space) {
      GraphLayout layout(space, g);
      const KernelStats stats = run(layout);
      return stats.edges_processed;
    });
    return prof;
  });
}

std::shared_ptr<const PageProfile> xsbench_profile(BEScale scale) {
  const std::string key = scale == BEScale::kTest ? "xsbench/test" : "xsbench/default";
  return memoized<PageProfile>(key, [&] {
    XSBenchKernel::Config xc;
    if (scale == BEScale::kTest) {
      xc.n_gridpoints = 1024;
      xc.n_nuclides = 8;
      xc.points_per_nuclide = 256;
    } else {
      xc.n_gridpoints = 32 * 1024;
      xc.n_nuclides = 68;
      xc.points_per_nuclide = 4096;
    }
    const std::uint64_t lookups = scale == BEScale::kTest ? 20'000 : 200'000;
    return extract_profile(XSBenchKernel::required_bytes(xc), [&](AddressSpace& space) {
      XSBenchKernel kernel(space, xc, /*seed=*/44);
      kernel.run(lookups);
      return lookups;
    });
  });
}

BEConfig make(std::string name, std::string description, const PageProfile& raw, Bytes rss,
              double cpu_ns_per_iter, int cores, double mlp) {
  BEConfig c;
  c.name = std::move(name);
  c.description = std::move(description);
  c.rss = rss;
  c.cpu_ns_per_iter = cpu_ns_per_iter;
  c.cores = cores;
  c.mlp = mlp;
  const std::uint64_t pages = bytes_to_pages(rss);
  c.profile = *memoized<BEProfile>(std::pair{&raw, pages},
                                   [&] { return BEProfile::of(raw.stretched_to(pages)); });
  return c;
}

}  // namespace

BEConfig sssp_config(BEScale scale, Bytes rss, int cores) {
  const auto prof = graph_profile(
      "sssp", scale,
      [](GraphLayout& l) {
        std::vector<std::uint64_t> dist;
        return sssp(l, /*source=*/0, /*delta=*/8, dist);
      },
      /*rmat=*/true);
  return make("sssp", "Finds the shortest paths from a single source node.", *prof, rss,
              /*cpu_ns_per_iter=*/4.0, cores, /*mlp=*/1.2);
}

BEConfig bfs_config(BEScale scale, Bytes rss, int cores) {
  const auto prof = graph_profile(
      "bfs", scale,
      [](GraphLayout& l) {
        std::vector<std::uint64_t> dist;
        return bfs(l, /*source=*/0, dist);
      },
      /*rmat=*/false);
  return make("bfs", "Explores all nodes at the current depth level.", *prof, rss,
              /*cpu_ns_per_iter=*/3.0, cores, /*mlp=*/1.0);
}

BEConfig pr_config(BEScale scale, Bytes rss, int cores) {
  const auto prof = graph_profile(
      "pr", scale,
      [](GraphLayout& l) {
        std::vector<double> rank;
        return pagerank(l, /*iterations=*/2, rank);
      },
      /*rmat=*/true);
  return make("pr", "Assigns importance scores to nodes in a directed graph.", *prof, rss,
              /*cpu_ns_per_iter=*/2.0, cores, /*mlp=*/2.5);
}

BEConfig xsbench_config(BEScale scale, Bytes rss, int cores) {
  return make("xsbench",
              "Simulates the computational workload of Monte Carlo neutron transport "
              "calculations.",
              *xsbench_profile(scale), rss, /*cpu_ns_per_iter=*/30.0, cores, /*mlp=*/6.0);
}

std::vector<BEConfig> be_suite(BEScale scale, Bytes rss, int cores, int n) {
  if (n < 1 || n > 4) throw std::invalid_argument("be_suite: n in [1,4]");
  // Per-workload RSS keeps the paper's Table 2 ratios (35.5/35.2/36.0/31.7 GB).
  const auto scaled = [rss](double ratio) { return static_cast<Bytes>(ratio * rss); };
  const auto build = [&](int idx) {
    switch (idx) {
      case 0: return sssp_config(scale, scaled(1.000), cores);
      case 1: return bfs_config(scale, scaled(0.992), cores);
      case 2: return pr_config(scale, scaled(1.014), cores);
      default: return xsbench_config(scale, scaled(0.893), cores);
    }
  };
  std::vector<int> picks;
  if (n == 2)
    picks = {0, 2};  // §5.4's two-BE setting is {SSSP, PR}
  else
    for (int i = 0; i < n; ++i) picks.push_back(i);
  std::vector<BEConfig> out;
  out.reserve(picks.size());
  for (int i : picks) out.push_back(build(i));
  return out;
}

}  // namespace mtat

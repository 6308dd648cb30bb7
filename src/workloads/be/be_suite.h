// The paper's Table 2 best-effort workload set, built from real kernel runs.
//
// build-time flow per workload: generate the input (R-MAT or uniform graph,
// XSBench grids), run the real kernel over a scratch address space to extract
// its page-access profile, stretch the profile to the experiment-scale RSS,
// and package it with the calibrated per-iteration CPU cost. Profiles are
// memoized per process — extraction runs each kernel once, not once per
// experiment configuration — and so are the tables of each stretched
// footprint (BEProfile::Tables), which every config of that footprint shares.
#pragma once

#include <string>
#include <vector>

#include "workloads/be/be_workload.h"

namespace mtat {

/// Extraction scale. kTest uses tiny inputs so unit tests stay fast; kDefault
/// matches DESIGN.md §5 and is used by the benchmark harness.
enum class BEScale { kTest, kDefault };

/// Table 2 configs in paper order: SSSP, BFS, PR, XSBench. `rss` is the
/// experiment-scale footprint each profile is stretched to; cores is the
/// per-workload core count (4 in the paper's main setup).
BEConfig sssp_config(BEScale scale, Bytes rss, int cores);
BEConfig bfs_config(BEScale scale, Bytes rss, int cores);
BEConfig pr_config(BEScale scale, Bytes rss, int cores);
BEConfig xsbench_config(BEScale scale, Bytes rss, int cores);

/// The first `n` of {SSSP, BFS, PR, XSBench}; n=2 gives the paper's two-BE
/// setting {SSSP, PR} (§5.4). Throws for n outside [1, 4].
std::vector<BEConfig> be_suite(BEScale scale, Bytes rss, int cores, int n = 4);

}  // namespace mtat

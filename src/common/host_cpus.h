// How many CPUs this process may run on.
//
// Tenant lanes (sim/tenant_lanes.h) size themselves from it, and the run
// manifest records the lane count it allows (obs/manifest.h). The affinity
// mask is read once per process and the answer never changes.
#pragma once

#include <cstddef>

namespace mtat {

/// CPUs in this process's affinity mask, at least 1.
std::size_t usable_cpus();

/// The most tenant lanes a sim may start: one CPU stays with the thread
/// that runs the sim, so usable_cpus() - 1.
std::size_t host_lane_limit();

}  // namespace mtat

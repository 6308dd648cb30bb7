// The x86-64 vector instruction level this host runs.
//
// Kernels that ship one instantiation per level (rl/mlp.cc) pick the widest
// one the host supports; the run manifest names it (obs/manifest.h). The
// host is probed once per process and the answer never changes.
#pragma once

#include <cstdint>

namespace mtat {

/// Ordered narrowest to widest: a host that runs a level runs every level
/// before it.
enum class SimdLevel : std::uint8_t { kSse2, kAvx2, kAvx512f };

/// The widest level this host runs (SSE2 is the x86-64 baseline).
SimdLevel host_simd_level();

/// True when the host runs `level`.
bool host_supports(SimdLevel level);

/// "sse2", "avx2" or "avx512f" ("unknown" for a value outside the enum).
const char* simd_level_name(SimdLevel level);

}  // namespace mtat

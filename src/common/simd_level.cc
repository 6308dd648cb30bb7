#include "common/simd_level.h"

namespace mtat {
namespace {

SimdLevel detect() {
  __builtin_cpu_init();
  // Both probes also check that the OS saves the wider register state.
  if (__builtin_cpu_supports("avx512f")) return SimdLevel::kAvx512f;
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
  return SimdLevel::kSse2;
}

}  // namespace

SimdLevel host_simd_level() {
  static const SimdLevel level = detect();
  return level;
}

bool host_supports(SimdLevel level) { return level <= host_simd_level(); }

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512f:
      return "avx512f";
  }
  return "unknown";
}

}  // namespace mtat

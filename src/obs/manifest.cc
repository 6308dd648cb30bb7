#include "obs/manifest.h"

#include <fstream>

#include "common/host_cpus.h"
#include "common/simd_level.h"
#include "obs/json.h"

#if __has_include("obs/version_gen.h")
#include "obs/version_gen.h"
#else
#define MTAT_GIT_SHA "unknown"
#endif

namespace mtat::obs {

const char* build_git_sha() { return MTAT_GIT_SHA; }

void RunManifest::write_json(std::ostream& os) const {
  os << "{\"schema\":\"mtat.run_manifest/1\",\"tool\":";
  json_string(os, tool);
  os << ",\"git_sha\":";
  json_string(os, build_git_sha());
  os << ",\"simd\":";
  json_string(os, simd_level_name(host_simd_level()));
  os << ",\"lanes\":" << host_lane_limit();
  os << ",\"scale\":";
  json_string(os, scale.empty() ? "custom" : scale);
  os << ",\"seed\":" << seed;
  os << ",\"train_epochs\":" << train_epochs;
  os << ",\"config\":{";
  bool first = true;
  for (const auto& [k, v] : config) {
    if (!first) os << ',';
    first = false;
    json_string(os, k);
    os << ':';
    json_string(os, v);
  }
  os << "}}";
}

bool RunManifest::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_json(out);
  out << '\n';
  return static_cast<bool>(out);
}

}  // namespace mtat::obs

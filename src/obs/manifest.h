// Run manifests: the reproducibility sidecar for every experiment output.
//
// A bench CSV or metrics dump is only as good as the configuration that
// produced it. RunManifest captures what a reader needs to re-run the
// experiment — tool name, scale preset, seed, training epochs, the git SHA
// the binary was built from, the host's vector level (which kernels ran, see
// common/simd_level.h), the tenant lanes the host allows a sim
// (common/host_cpus.h), and free-form config key/values — and writes it
// as a small JSON document next to the data (schema "mtat.run_manifest/1",
// documented in DESIGN.md "Observability").
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace mtat::obs {

/// Git SHA recorded at CMake configure time ("unknown" outside a git
/// checkout). Stale by at most one configure — good enough provenance for
/// experiment sidecars.
const char* build_git_sha();

struct RunManifest {
  std::string tool;        ///< producing binary / experiment name
  std::string scale;       ///< MTAT_SCALE preset, or "custom" for CLI runs
  std::uint64_t seed = 0;
  int train_epochs = -1;   ///< -1 when not applicable (non-RL runs)
  /// Free-form configuration (policy, workload, sizes, pattern, ...). Order
  /// is preserved in the output.
  std::vector<std::pair<std::string, std::string>> config;

  void add(std::string key, std::string value) {
    config.emplace_back(std::move(key), std::move(value));
  }

  /// One JSON object, schema "mtat.run_manifest/1".
  void write_json(std::ostream& os) const;

  /// Write to `path` (+ trailing newline). Returns false on I/O failure
  /// instead of throwing — a missing sidecar must never kill an experiment.
  bool write_file(const std::string& path) const;
};

}  // namespace mtat::obs

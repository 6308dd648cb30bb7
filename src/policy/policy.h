// The tiering-policy interface every placement scheme in the reproduction
// implements: MTAT (Full and LC-Only), the MEMTIS-like and TPP-like
// baselines, and the static FMEM_ALL / SMEM_ALL pins.
//
// A policy acts through exactly two entry points driven by the simulation
// clock: on_tick (fine-grained, every simulation tick — continuous page
// migration work, spending the shared MigrationEngine budget) and
// on_interval (the paper's partition-policy interval — heavyweight decisions
// such as RL inference, SA search, and histogram aging). Policies never touch
// pages directly; all movement is budgeted through the MigrationEngine, so no
// scheme can out-migrate the platform's bandwidth.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.h"
#include "common/units.h"
#include "mem/migration_engine.h"
#include "mem/tiered_memory.h"
#include "telemetry/access_sampler.h"

namespace mtat {

class StateArchive;

/// What a policy is told about each co-located tenant.
struct TenantInfo {
  WorkloadId id = kInvalidWorkload;
  bool is_lc = false;
};

/// Shared plumbing handed to policies at construction. Owned by the
/// simulation; policies keep the pointer for their lifetime.
struct PolicyContext {
  TieredMemory* mem = nullptr;
  MigrationEngine* engine = nullptr;
  AccessSampler* sampler = nullptr;
  std::vector<TenantInfo> tenants;

  const TenantInfo& lc_tenant() const {
    for (const TenantInfo& t : tenants)
      if (t.is_lc) return t;
    throw std::logic_error("PolicyContext: no LC tenant");
  }
};

class TieringPolicy {
 public:
  virtual ~TieringPolicy() = default;

  virtual std::string name() const = 0;

  /// Fine-grained migration work; called once per simulation tick.
  virtual void on_tick(SimTime now, Duration dt) = 0;

  /// Partition-interval decisions. `lc_p99` is the LC workload's P99 over the
  /// elapsed interval (0 when no requests completed) — PP-M's reward input;
  /// baselines are free to ignore it.
  virtual void on_interval(SimTime now, Duration interval, Duration lc_p99) = 0;

  /// Save or load the policy's mutable state (common/state_archive.h) for a
  /// ColocationSim checkpoint. A policy that does not override it cannot be
  /// checkpointed.
  virtual void persist(StateArchive&) {
    throw std::logic_error(name() + ": policy has no checkpoint codec");
  }
};

}  // namespace mtat

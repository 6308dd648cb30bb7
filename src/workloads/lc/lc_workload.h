// Latency-critical workload models: Redis-, Memcached-, MongoDB- and
// Silo-like servers (the paper's Table 1 set), scaled per DESIGN.md §5.
//
// Each model owns an address space on the tiered memory, hosts a real storage
// engine (HashStore or BTreeStore) in it, and serves one request at a time:
// serve() picks a key from the request distribution, walks the engine's
// actual probe/index path, and returns the request's service time — a fixed
// CPU component plus the tier-dependent latency of every modelled miss. The
// FMem-sensitivity of each workload is therefore an emergent property of
// where its pages currently are, which is the mechanism behind every LC
// result in the paper (Figures 1, 2, 5, 8).
//
// Calibration: the factory derives (base_cpu, record_misses) from two
// targets — max_load_krps at 100% FMem and the SMEM_ALL/FMEM_ALL throughput
// ratio — via service-time algebra; see lc_workload.cc.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "mem/address_space.h"
#include "workloads/kv/btree_store.h"
#include "workloads/kv/hash_store.h"

namespace mtat {

enum class LCKind : std::uint8_t { kRedis, kMemcached, kMongoDB, kSilo };

/// How request keys are drawn. The paper drives all four LC workloads with
/// uniformly distributed requests (§2.2, §5); zipfian is kept for ablations.
enum class RequestDist : std::uint8_t { kUniform, kZipfian };

struct LCConfig {
  std::string name;
  LCKind kind = LCKind::kRedis;
  int threads = 1;               ///< serving threads (k of the M/G/k queue)
  std::uint64_t n_records = 0;
  Bytes record_size = 1024;
  Duration slo = milliseconds(20);      ///< P99 SLO
  double max_load_krps = 8.0;           ///< calibration: max tput at FMem 100%
  double smem_throughput_ratio = 0.78;  ///< calibration: SMEM_ALL max / FMEM_ALL max
  double read_fraction = 1.0;           ///< YCSB-C is 100% reads
  RequestDist dist = RequestDist::kUniform;
  double zipf_theta = 0.99;
  std::uint64_t sample_period = 256;  ///< PEBS-like sampling (denser than BE: compressed-time
                                      ///< equivalent of the paper's per-interval sample volume)
  // Silo-style transactions: touches per transaction across tables.
  int txn_reads = 0;
  int txn_writes = 0;
  int n_tables = 1;
};

/// Paper Table 1, scaled: Redis 1 thread / 1 KiB records; Memcached 8 threads
/// / 4 KiB values; MongoDB 8 threads / 1 KiB documents behind a B+-tree; Silo
/// 1 thread / TPC-C-like multi-table read-write transactions.
LCConfig redis_config();
LCConfig memcached_config();
LCConfig mongodb_config();
LCConfig silo_config();
/// All four, in paper order.
std::vector<LCConfig> all_lc_configs();

class LCWorkload {
 public:
  /// Allocates the workload's address space under `alloc` and builds its
  /// storage engine. `seed` drives only this workload's key choices.
  LCWorkload(TieredMemory& mem, WorkloadId id, const LCConfig& cfg, AllocPolicy alloc,
             std::uint64_t seed);

  /// Serve one request: returns its service time (CPU + memory).
  Duration serve();

  /// Service time a request would see with every page in the given tier —
  /// the analytic envelope used by tests and calibration checks.
  Duration ideal_service_time(TierId t) const;

  AddressSpace& space() { return *space_; }
  const LCConfig& config() const { return cfg_; }
  WorkloadId id() const { return id_; }
  Bytes rss() const { return space_->size(); }
  Duration base_cpu() const { return base_cpu_; }
  /// Total modelled misses per request (index/probe path + record touches).
  std::uint64_t misses_per_request() const {
    const int touches = cfg_.kind == LCKind::kSilo ? cfg_.txn_reads + cfg_.txn_writes : 1;
    return fixed_misses_ + record_misses_ * static_cast<std::uint64_t>(touches);
  }
  std::uint64_t record_misses() const { return record_misses_; }
  std::uint64_t requests_served() const { return served_; }

  /// Checkpoint codec (common/state_archive.h). The stores are pure
  /// functions of the config; the request stream's cursor is the state.
  template <class Ar>
  void persist(Ar& ar) {
    ar(*space_, rng_, served_);
  }

 private:
  std::uint64_t pick_key(std::uint64_t n);

  TieredMemory* mem_;
  WorkloadId id_;
  LCConfig cfg_;
  Duration base_cpu_ = 0;
  std::uint64_t record_misses_ = 0;
  std::uint64_t fixed_misses_ = 0;  // probe/index misses per request, for ideal_service_time
  std::unique_ptr<AddressSpace> space_;
  std::unique_ptr<HashStore> hash_;
  std::vector<std::unique_ptr<BTreeStore>> tables_;
  std::unique_ptr<ZipfianGenerator> zipf_;
  Rng rng_;
  std::uint64_t served_ = 0;
};

}  // namespace mtat

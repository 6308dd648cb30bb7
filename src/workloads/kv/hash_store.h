// Open-addressing hash key-value store over the simulated address space.
//
// This is the storage engine behind the Redis-like and Memcached-like LC
// workload models. It is a real hash table — keys are inserted with linear
// probing into a bucket array, so probe counts are the true probe counts —
// but the *data* bytes are not materialized: what the simulation needs from a
// request is (a) which simulated pages it touches and (b) how many memory
// misses it costs, both of which the layout provides.
//
// Layout within the workload's AddressSpace:
//   [0, n_buckets * kBucketBytes)            bucket array
//   [bucket_end, bucket_end + n * record)    record heap, record i at slot i
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "mem/address_space.h"

namespace mtat {

class HashStore {
 public:
  static constexpr Bytes kBucketBytes = 16;  // key fingerprint + record pointer

  struct Config {
    std::uint64_t n_records = 0;
    Bytes record_size = 1024;
    double fill_factor = 0.7;          ///< bucket-array load factor
    std::uint64_t probe_misses = 1;    ///< misses charged per probed bucket
    std::uint64_t record_misses = 16;  ///< misses charged for one full record read
  };

  /// Space the store needs inside an AddressSpace, for sizing the allocation.
  static Bytes required_bytes(const Config& cfg);

  /// The host-side table: how many buckets each of keys 0..n_records-1
  /// walked when it was inserted, and their mean. A lookup of a key walks
  /// exactly those buckets (nothing is ever deleted), so this is all a
  /// request needs of the layout. A pure function of (n_records, bucket
  /// count), so it is built once per process per pair and shared read-only
  /// by every store of that shape (common/memo.h).
  struct Table {
    std::uint64_t n_buckets = 0;
    std::vector<std::uint16_t> probes;  ///< per key; the build checks they fit
    double mean_probes = 0.0;
  };

  /// Lays the store over `space` and takes the table of its shape (building
  /// it on first use in the process). The space must be at least
  /// required_bytes() large.
  HashStore(AddressSpace& space, const Config& cfg);

  /// Point lookup: probes buckets, reads the record. Returns charged latency.
  /// Key must have been inserted (0 <= key < n_records).
  Duration get(std::uint64_t key);

  /// Update: same probe path, record written instead of read.
  Duration put(std::uint64_t key);

  const Config& config() const { return cfg_; }
  std::uint64_t n_buckets() const { return table_->n_buckets; }
  /// Mean probes over all inserted keys: LC calibration's fixed miss count.
  double mean_probes() const { return table_->mean_probes; }

 private:
  /// Walk the probe sequence for `key`, charging bucket accesses. Throws
  /// std::logic_error for a key that was never inserted.
  void probe(std::uint64_t key, Duration& lat);
  Duration touch_record(std::uint64_t key, AccessKind kind);

  AddressSpace* space_;
  Config cfg_;
  std::shared_ptr<const Table> table_;
  Bytes records_base_;
};

}  // namespace mtat

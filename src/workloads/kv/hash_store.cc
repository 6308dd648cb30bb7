#include "workloads/kv/hash_store.h"

#include <limits>
#include <stdexcept>
#include <utility>

#include "common/memo.h"

namespace mtat {
namespace {

std::uint64_t mix64(std::uint64_t x) {
  // splitmix64 finalizer — good avalanche, deterministic across platforms.
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

std::uint64_t buckets_for(const HashStore::Config& cfg) {
  return static_cast<std::uint64_t>(static_cast<double>(cfg.n_records) / cfg.fill_factor) + 1;
}

std::uint64_t bucket_of(std::uint64_t key, std::uint64_t n_buckets) {
  return mix64(key) % n_buckets;
}

/// Real insertion with linear probing, so probe-sequence lengths are genuine.
/// Nothing is ever deleted, so a later lookup of a key walks exactly the
/// buckets its insertion walked: the table keeps each key's count, and the
/// mean falls out of the build. The slots themselves are dropped.
HashStore::Table build_table(std::uint64_t n_records, std::uint64_t n_buckets) {
  HashStore::Table t;
  t.n_buckets = n_buckets;
  t.probes.resize(n_records);
  std::vector<bool> taken(n_buckets, false);
  std::uint64_t total = 0;
  for (std::uint64_t key = 0; key < n_records; ++key) {
    std::uint64_t b = bucket_of(key, n_buckets);
    std::uint64_t probes = 1;
    while (taken[b]) {
      b = (b + 1) % n_buckets;
      ++probes;
    }
    taken[b] = true;
    if (probes > std::numeric_limits<std::uint16_t>::max())
      throw std::logic_error("HashStore: probe sequence too long for the table");
    t.probes[key] = static_cast<std::uint16_t>(probes);
    total += probes;
  }
  t.mean_probes = static_cast<double>(total) / static_cast<double>(n_records);
  return t;
}

}  // namespace

Bytes HashStore::required_bytes(const Config& cfg) {
  return buckets_for(cfg) * kBucketBytes + cfg.n_records * cfg.record_size;
}

HashStore::HashStore(AddressSpace& space, const Config& cfg) : space_(&space), cfg_(cfg) {
  if (cfg.n_records == 0) throw std::invalid_argument("HashStore: n_records must be > 0");
  if (cfg.fill_factor <= 0.0 || cfg.fill_factor >= 1.0)
    throw std::invalid_argument("HashStore: fill_factor in (0,1)");
  if (space.size() < required_bytes(cfg))
    throw std::invalid_argument("HashStore: address space too small");
  const std::pair<std::uint64_t, std::uint64_t> shape{cfg.n_records, buckets_for(cfg)};
  table_ = memoized<Table>(shape, [&] { return build_table(shape.first, shape.second); });
  records_base_ = table_->n_buckets * kBucketBytes;
}

void HashStore::probe(std::uint64_t key, Duration& lat) {
  if (key >= cfg_.n_records) throw std::logic_error("HashStore: key not present");
  const std::uint64_t n = table_->n_buckets;
  std::uint64_t b = bucket_of(key, n);
  for (std::uint16_t left = table_->probes[key];;) {
    lat += space_->access_page_n(b * kBucketBytes / kPageSize, cfg_.probe_misses);
    if (--left == 0) return;
    if (++b == n) b = 0;
  }
}

Duration HashStore::touch_record(std::uint64_t key, AccessKind kind) {
  // Spread the record's miss budget over the pages it overlaps, charging each
  // page its share — a 4 KiB value spans two pages when unaligned.
  const Bytes start = records_base_ + key * cfg_.record_size;
  const Bytes end = start + cfg_.record_size - 1;
  const std::uint64_t first = start / kPageSize;
  const std::uint64_t last = end / kPageSize;
  Duration lat = 0;
  std::uint64_t remaining = cfg_.record_misses;
  for (std::uint64_t vp = first; vp <= last; ++vp) {
    const std::uint64_t pages_left = last - vp + 1;
    const std::uint64_t share = (remaining + pages_left - 1) / pages_left;  // ceil
    lat += space_->access_page_n(vp, share, kind);
    remaining -= share;
  }
  return lat;
}

Duration HashStore::get(std::uint64_t key) {
  Duration lat = 0;
  probe(key, lat);
  lat += touch_record(key, AccessKind::kRead);
  return lat;
}

Duration HashStore::put(std::uint64_t key) {
  Duration lat = 0;
  probe(key, lat);
  lat += touch_record(key, AccessKind::kWrite);
  return lat;
}

}  // namespace mtat

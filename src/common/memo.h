// Process-wide memo of immutable derived state.
//
// Some of a node's boot state is a pure function of a small key: a BE
// kernel's extracted page profile (per workload and scale), the alias table
// and hit curve of that profile stretched to a footprint, a hash store's slot
// table (per record count and bucket count). Fleet simulations boot hundreds
// of nodes with the same keys, so each value is built once per process and
// handed out as shared_ptr<const V>: every holder reads the same bytes, and
// nobody can write them.
//
// memoized<V>(key, build) is the one entry point. Its cache is shared across
// threads (parallel runner workers boot nodes concurrently). build() runs
// under the lock, so a first touch is serialized — two workers never build
// the same key twice — and every later lookup is a map find plus a refcount
// bump. build() must not re-enter the same memoized<V, K> instantiation (the
// mutex is not recursive); a builder may use another one.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "common/thread_annotations.h"

namespace mtat {

/// Keyed, append-only cache of shared immutable values.
template <class K, class V>
class Memo {
 public:
  template <class Build>
  std::shared_ptr<const V> get(const K& key, Build&& build) EXCLUDES(mu_) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it == cache_.end()) it = cache_.emplace(key, std::make_shared<const V>(build())).first;
    return it->second;
  }

 private:
  std::mutex mu_;
  std::map<K, std::shared_ptr<const V>> cache_ GUARDED_BY(mu_);
};

/// The process-wide value of `key`, built by `build()` (returning a V) on
/// first use. Values must be deterministic functions of their keys.
template <class V, class K, class Build>
std::shared_ptr<const V> memoized(const K& key, Build&& build) {
  // Ownership: one memo per (K, V), process-global. Guarded by its internal
  // mutex and append-only; every cached value is a deterministic function of
  // its key, so sharing it across threads and runs cannot fork results.
  static Memo<K, V> memo;  // mtat-lint: allow(shared-mutable)
  return memo.get(key, std::forward<Build>(build));
}

}  // namespace mtat

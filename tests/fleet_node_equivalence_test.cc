// Differential test for the cheap fleet node.
//
// A node's boot state is now built once per process and shared, its pulls
// copy whole bin prefixes, and placement changes reach a workload's listeners
// only for that workload's pages. Each part is checked against a
// transcription of the code it replaced:
//
//   - RefHashStore: the per-node HashStore, which built its own slot table,
//     re-walked every key for mean_probes() and walked the slots on every
//     lookup.
//   - RefAlias: the per-tenant alias table, resolved with a branch.
//   - ref_pull / ref_slower_pull: pulls that push_back one page at a time.
//   - RefBeWeights: BEWorkload's tier-weight upkeep, which heard every page
//     move and range-rejected the ones outside its page run.
//   - Broadcast replay: every page move delivered to every filtered
//     histogram, as TieredMemory::place did before owner dispatch.
//
// Owner dispatch is exact only if a workload samples nothing but its own
// pages (a filtered histogram would otherwise track a page whose moves it
// never hears of); EveryWorkloadSamplesOnlyPagesItOwns checks that on whole
// nodes, under sample corruption. ColdMemoBootsRaceToIdenticalNodes boots two
// nodes of one config concurrently against cold memos (run it under TSan).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/alias_sampler.h"
#include "common/rng.h"
#include "faults/fault_plan.h"
#include "mem/address_space.h"
#include "mem/tiered_memory.h"
#include "obs/names.h"
#include "obs/run_context.h"
#include "sim/colocation_sim.h"
#include "sim/experiments.h"
#include "telemetry/access_sampler.h"
#include "telemetry/page_hotness.h"
#include "workloads/be/be_suite.h"
#include "workloads/be/be_workload.h"
#include "workloads/kv/hash_store.h"

namespace mtat {
namespace {

// ------------------------------------------------------------ HashStore ----

constexpr std::uint64_t kEmptySlot = ~0ull;

/// The per-node HashStore: its own slot table, built in the constructor, and
/// a lookup that walks the slots until it finds the key.
class RefHashStore {
 public:
  RefHashStore(AddressSpace& space, const HashStore::Config& cfg) : space_(&space), cfg_(cfg) {
    slots_.assign(
        static_cast<std::uint64_t>(static_cast<double>(cfg.n_records) / cfg.fill_factor) + 1,
        kEmptySlot);
    records_base_ = slots_.size() * HashStore::kBucketBytes;
    for (std::uint64_t key = 0; key < cfg.n_records; ++key) {
      std::uint64_t b = bucket_of(key);
      while (slots_[b] != kEmptySlot) b = (b + 1) % slots_.size();
      slots_[b] = key;
    }
  }

  Duration get(std::uint64_t key) { return probe(key) + touch_record(key, AccessKind::kRead); }
  Duration put(std::uint64_t key) { return probe(key) + touch_record(key, AccessKind::kWrite); }

  double mean_probes() const {
    std::uint64_t total = 0;
    for (std::uint64_t key = 0; key < cfg_.n_records; ++key) {
      std::uint64_t b = bucket_of(key);
      std::uint64_t probes = 1;
      while (slots_[b] != key) {
        b = (b + 1) % slots_.size();
        ++probes;
      }
      total += probes;
    }
    return static_cast<double>(total) / static_cast<double>(cfg_.n_records);
  }

 private:
  static std::uint64_t mix64(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return x;
  }
  std::uint64_t bucket_of(std::uint64_t key) const { return mix64(key) % slots_.size(); }

  Duration probe(std::uint64_t key) {
    Duration lat = 0;
    std::uint64_t b = bucket_of(key);
    while (true) {
      lat += space_->access_page_n(b * HashStore::kBucketBytes / kPageSize, cfg_.probe_misses);
      if (slots_[b] == key) return lat;
      b = (b + 1) % slots_.size();
    }
  }

  Duration touch_record(std::uint64_t key, AccessKind kind) {
    const Bytes start = records_base_ + key * cfg_.record_size;
    const Bytes end = start + cfg_.record_size - 1;
    const std::uint64_t first = start / kPageSize;
    const std::uint64_t last = end / kPageSize;
    Duration lat = 0;
    std::uint64_t remaining = cfg_.record_misses;
    for (std::uint64_t vp = first; vp <= last; ++vp) {
      const std::uint64_t pages_left = last - vp + 1;
      const std::uint64_t share = (remaining + pages_left - 1) / pages_left;
      lat += space_->access_page_n(vp, share, kind);
      remaining -= share;
    }
    return lat;
  }

  AddressSpace* space_;
  HashStore::Config cfg_;
  std::vector<std::uint64_t> slots_;
  Bytes records_base_;
};

/// A node's memory with the store's space spilling past FMem, so a key's
/// latency depends on which of its pages sit in which tier.
struct KvNode {
  explicit KvNode(const HashStore::Config& cfg, std::uint64_t sample_period = 1)
      : mem(TieredMemory::Config::two_tier(bytes_to_pages(HashStore::required_bytes(cfg)) / 3,
                                           bytes_to_pages(HashStore::required_bytes(cfg)))),
        space(mem, 0, HashStore::required_bytes(cfg), kFastestFirst, sample_period) {}
  TieredMemory mem;
  AddressSpace space;
};

TEST(FleetNodeEquivalence, SharedHashStoreMatchesPerNodeStore) {
  for (const auto& [n_records, record_size, fill] :
       {std::tuple{std::uint64_t{5000}, Bytes{1024}, 0.7},
        std::tuple{std::uint64_t{5000}, Bytes{1024}, 0.5},  // same records, other table
        std::tuple{std::uint64_t{3001}, Bytes{4096}, 0.5},
        std::tuple{std::uint64_t{777}, Bytes{100}, 0.93}}) {
    SCOPED_TRACE(testing::Message() << n_records << " records");
    HashStore::Config cfg;
    cfg.n_records = n_records;
    cfg.record_size = record_size;
    cfg.fill_factor = fill;
    cfg.record_misses = 5;
    KvNode ref_node(cfg), node_a(cfg), node_b(cfg);
    RefHashStore ref(ref_node.space, cfg);
    // Two nodes of one shape: the second store is a memo hit.
    HashStore a(node_a.space, cfg);
    HashStore b(node_b.space, cfg);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mean_probes()),
              std::bit_cast<std::uint64_t>(ref.mean_probes()));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(b.mean_probes()),
              std::bit_cast<std::uint64_t>(ref.mean_probes()));
    for (std::uint64_t key = 0; key < n_records; ++key) {
      const Duration want_get = ref.get(key);
      ASSERT_EQ(a.get(key), want_get) << "get " << key;
      ASSERT_EQ(b.get(key), want_get) << "get " << key;
      const Duration want_put = ref.put(key);
      ASSERT_EQ(a.put(key), want_put) << "put " << key;
      ASSERT_EQ(b.put(key), want_put) << "put " << key;
    }
  }
}

TEST(FleetNodeEquivalence, HashStoreRequestStreamMatchesSlotWalk) {
  // A random get/put stream, sampled 1-in-7 into an AccessSampler with a
  // hotness histogram, as an LC workload runs it. The store that steps a
  // key's stored probe count must charge every request what the slot walk
  // charges and leave the sampler and every hotness bin where it leaves them.
  for (const auto& [n_records, record_size, fill] :
       {std::tuple{std::uint64_t{5000}, Bytes{1024}, 0.7},
        std::tuple{std::uint64_t{3001}, Bytes{4096}, 0.5},
        std::tuple{std::uint64_t{777}, Bytes{100}, 0.93}}) {
    SCOPED_TRACE(testing::Message() << n_records << " records");
    HashStore::Config cfg;
    cfg.n_records = n_records;
    cfg.record_size = record_size;
    cfg.fill_factor = fill;
    cfg.record_misses = 5;
    constexpr std::uint64_t kPeriod = 7;
    KvNode ref_node(cfg, kPeriod), node(cfg, kPeriod);
    AccessSampler ref_sampler(ref_node.mem, kPeriod), sampler(node.mem, kPeriod);
    PageHotness ref_hot(ref_node.mem), hot(node.mem);
    ref_sampler.add_sink(&ref_hot);
    sampler.add_sink(&hot);
    ref_node.space.set_observer(&ref_sampler);
    node.space.set_observer(&sampler);
    RefHashStore ref(ref_node.space, cfg);
    HashStore store(node.space, cfg);
    Rng rng(n_records);
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t key = rng.next_below(n_records);
      if (rng.next_bool(0.3))
        ASSERT_EQ(store.put(key), ref.put(key)) << "put " << key << " at request " << i;
      else
        ASSERT_EQ(store.get(key), ref.get(key)) << "get " << key << " at request " << i;
    }
    EXPECT_THROW(store.get(n_records), std::logic_error);
    const IntervalCounters want = ref_sampler.collect(0), got = sampler.collect(0);
    EXPECT_EQ(got.reads, want.reads);
    EXPECT_EQ(got.writes, want.writes);
    EXPECT_EQ(got.tier_accesses, want.tier_accesses);
    EXPECT_GT(got.total(), 0u);
    const std::vector<PageId>& ref_pages = ref_node.space.pages();
    const std::vector<PageId>& pages = node.space.pages();
    ASSERT_EQ(pages.size(), ref_pages.size());
    for (std::size_t i = 0; i < pages.size(); ++i) {
      ASSERT_EQ(hot.bin_of_page(pages[i]), ref_hot.bin_of_page(ref_pages[i])) << "page " << i;
      ASSERT_EQ(hot.count_of(pages[i]), ref_hot.count_of(ref_pages[i])) << "page " << i;
    }
  }
}

// ------------------------------------------------- alias table and prefix ----

/// The per-tenant alias table, resolved with a branch on the coin.
class RefAlias {
 public:
  explicit RefAlias(const std::vector<double>& weights) {
    const std::size_t n = weights.size();
    double total = 0.0;
    for (double w : weights) total += w;
    prob_.assign(n, 0.0);
    alias_.assign(n, 0);
    std::vector<double> scaled(n);
    std::vector<std::uint32_t> small, large;
    for (std::size_t i = 0; i < n; ++i) {
      scaled[i] = weights[i] * static_cast<double>(n) / total;
      (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
    }
    while (!small.empty() && !large.empty()) {
      const std::uint32_t s = small.back();
      small.pop_back();
      const std::uint32_t l = large.back();
      prob_[s] = scaled[s];
      alias_[s] = l;
      scaled[l] -= 1.0 - scaled[s];
      if (scaled[l] < 1.0) {
        large.pop_back();
        small.push_back(l);
      }
    }
    for (std::uint32_t i : large) prob_[i] = 1.0;
    for (std::uint32_t i : small) prob_[i] = 1.0;
    for (std::size_t i = 0; i < n; ++i)
      if (prob_[i] >= 1.0) alias_[i] = static_cast<std::uint32_t>(i);
  }

  std::uint32_t operator()(Rng& rng) const {
    const auto col = static_cast<std::uint32_t>(rng.next_below(prob_.size()));
    return rng.next_double() < prob_[col] ? col : alias_[col];
  }

 private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
};

/// `cfg`'s shared tables against a per-tenant build from its weights: the
/// draw sequence (batched and one at a time), the RNG state afterwards, and
/// the hit-curve bits.
void expect_tables_match_per_tenant_build(const BEConfig& cfg) {
  const BEProfile::Tables& t = *cfg.profile.tables;
  ASSERT_EQ(t.weight.size(), bytes_to_pages(cfg.rss));
  const RefAlias ref(t.weight);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{255},
                              std::size_t{256}, std::size_t{257}, std::size_t{3 * 256 + 17}}) {
    Rng batch_rng(40 + n), one_rng(40 + n), ref_rng(40 + n);
    std::vector<std::uint32_t> batch(n);
    t.alias.draw(batch_rng, batch);
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint32_t want = ref(ref_rng);
      ASSERT_EQ(batch[k], want) << "draw " << k << " of " << n;
      ASSERT_EQ(t.alias(one_rng), want) << "draw " << k << " of " << n;
    }
    const std::uint64_t next = ref_rng.next_u64();
    EXPECT_EQ(batch_rng.next_u64(), next) << "RNG state after " << n;
    EXPECT_EQ(one_rng.next_u64(), next) << "RNG state after " << n;
  }
  PageProfile stretched;
  stretched.weight = t.weight;
  const std::vector<double> want_prefix = stretched.best_placement_prefix();
  ASSERT_EQ(t.best_prefix.size(), want_prefix.size());
  for (std::size_t g = 0; g < want_prefix.size(); ++g)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(t.best_prefix[g]),
              std::bit_cast<std::uint64_t>(want_prefix[g]))
        << "prefix " << g;
}

TEST(FleetNodeEquivalence, MemoizedAliasTableAndPrefixMatchPerTenantBuilds) {
  // Two footprints a few pages apart: each gets its own tables, and a second
  // config of the same workload and footprint shares them.
  for (const Bytes rss : {12_MiB, 12_MiB + 5 * kPageSize}) {
    const std::vector<BEConfig> suite = be_suite(BEScale::kTest, rss, 4, 4);
    const std::vector<BEConfig> again = be_suite(BEScale::kTest, rss, 4, 4);
    for (std::size_t i = 0; i < suite.size(); ++i) {
      SCOPED_TRACE(testing::Message() << suite[i].name << " at " << rss << " bytes");
      EXPECT_EQ(again[i].profile.tables, suite[i].profile.tables);
      expect_tables_match_per_tenant_build(suite[i]);
    }
  }
}

// ------------------------------------------------------------ bulk pulls ----

/// A pull as it was: push_back each page of each bin in scan order until
/// `max_n` pages are out.
std::vector<PageId> ref_pull(const PageHotness& h, TierId tier, std::size_t max_n,
                             bool from_hot) {
  std::vector<PageId> out;
  if (max_n == 0) return out;
  const auto collect = [&](int b) {
    for (PageId p : h.bin_pages(tier, b)) {
      out.push_back(p);
      if (out.size() == max_n) return true;
    }
    return false;
  };
  if (from_hot) {
    for (int b = PageHotness::kBins - 1; b >= 1; --b)
      if (collect(b)) break;
  } else {
    for (int b = 0; b < PageHotness::kBins; ++b)
      if (collect(b)) break;
  }
  return out;
}

/// The slower-aggregate pulls as they were: bins in scan order, tiers 1..n-1
/// within a bin.
std::vector<PageId> ref_slower_pull(const PageHotness& h, std::size_t max_n, bool from_hot) {
  std::vector<PageId> out;
  if (max_n == 0) return out;
  const int first = from_hot ? PageHotness::kBins - 1 : 0;
  const int last = from_hot ? 0 : PageHotness::kBins;  // exclusive: hottest skips bin 0
  const int step = from_hot ? -1 : 1;
  for (int b = first; b != last; b += step) {
    for (std::size_t t = 1; t < h.tier_count(); ++t) {
      for (PageId p : h.bin_pages(static_cast<TierId>(t), b)) {
        out.push_back(p);
        if (out.size() == max_n) return out;
      }
    }
  }
  return out;
}

TieredMemory::Config topology(std::size_t tiers, std::uint64_t pages) {
  TieredMemory::Config c = TieredMemory::Config::two_tier(pages / 4, pages);
  if (tiers == 3) {
    c.tiers[1].capacity_pages = pages / 4;
    c.tiers.push_back(c.tiers[1]);
    c.tiers[2].name = "nvm";
    c.tiers[2].capacity_pages = pages;
    c.tiers[2].latency = 450;
  }
  return c;
}

/// Pull sizes that matter: none, one, each of the first bin boundaries in
/// scan order and one either side of it, and more than is tracked.
std::vector<std::size_t> pull_sizes(const std::vector<std::size_t>& bin_sizes,
                                    std::size_t tracked) {
  std::vector<std::size_t> sizes = {0, 1, tracked + 7};
  std::size_t cum = 0;
  int boundaries = 0;
  for (const std::size_t n : bin_sizes) {
    if (n == 0) continue;
    cum += n;
    sizes.insert(sizes.end(), {cum - 1, cum, cum + 1});
    if (++boundaries == 3) break;
  }
  return sizes;
}

TEST(FleetNodeEquivalence, BulkPullsMatchPageAtATimePulls) {
  constexpr std::uint64_t kPages = 2048;
  for (const std::size_t tiers : {std::size_t{2}, std::size_t{3}}) {
    SCOPED_TRACE(testing::Message() << tiers << " tiers");
    TieredMemory mem(topology(tiers, kPages));
    mem.allocate(0, kPages / 2, kFastestFirst);
    mem.allocate(1, kPages / 2, kFastestFirst);
    PageHotness h(mem);
    h.seed_allocated_pages();
    Rng rng(tiers);
    std::vector<PageId> scratch = {kInvalidPage, kInvalidPage};  // pulls must clear it
    for (int round = 0; round < 5; ++round) {
      for (int i = 0; i < 3000; ++i) {
        const std::uint32_t op = rng.next_below(100);
        const auto p = static_cast<PageId>(op < 50 ? rng.next_below(kPages / 16)
                                                   : rng.next_below(kPages));
        if (op < 85) {
          h.record_access(mem.owner_of(p), p);
        } else if (op < 97) {
          mem.migrate(p, static_cast<TierId>(rng.next_below(tiers)));
        } else {
          h.age();
        }
      }
      for (TierId t = 0; t < tiers; ++t) {
        for (const bool hot : {true, false}) {
          std::vector<std::size_t> bins;
          for (int k = 0; k < PageHotness::kBins; ++k)
            bins.push_back(h.bin_size(t, hot ? PageHotness::kBins - 1 - k : k));
          for (const std::size_t n : pull_sizes(bins, h.tracked_pages())) {
            SCOPED_TRACE(testing::Message() << "tier " << int{t} << (hot ? " hottest " : " coldest ")
                                            << n);
            const std::vector<PageId> want = ref_pull(h, t, n, hot);
            ASSERT_EQ(hot ? h.hottest_in_tier(t, n) : h.coldest_in_tier(t, n), want);
            hot ? h.hottest_in_tier(t, n, scratch) : h.coldest_in_tier(t, n, scratch);
            ASSERT_EQ(scratch, want);
          }
        }
      }
      for (const bool hot : {true, false}) {
        std::vector<std::size_t> cells;  // (bin, tier) cells in scan order
        for (int k = 0; k < PageHotness::kBins; ++k)
          for (std::size_t t = 1; t < tiers; ++t)
            cells.push_back(h.bin_size(static_cast<TierId>(t), hot ? PageHotness::kBins - 1 - k : k));
        for (const std::size_t n : pull_sizes(cells, h.tracked_pages())) {
          SCOPED_TRACE(testing::Message() << (hot ? "hottest" : "coldest") << " in slower " << n);
          hot ? h.hottest_in_slower(n, scratch) : h.coldest_in_slower(n, scratch);
          const std::vector<PageId> want = ref_slower_pull(h, n, hot);
          ASSERT_EQ(scratch, want);
        }
      }
    }
  }
}

// -------------------------------------------------------- owner dispatch ----

/// BEWorkload's tier-weight upkeep as it was: registered for every page, it
/// range-rejects moves of pages outside its run.
class RefBeWeights : public MigrationListener {
 public:
  RefBeWeights(TieredMemory& mem, BEWorkload& be)
      : first_(be.space().pages().front()),
        n_(be.space().num_pages()),
        weight_(&be.config().profile.tables->weight) {
    const auto& pages = be.space().pages();
    for (std::size_t i = 0; i < pages.size(); ++i)
      tier_weight_[mem.tier_of(pages[i])] += (*weight_)[i];
    mem.add_migration_listener(this);
  }

  void on_migration(PageId p, TierId from, TierId to) override {
    if (p < first_ || p >= first_ + n_) return;
    const double w = (*weight_)[p - first_];
    tier_weight_[from] -= w;
    tier_weight_[to] += w;
  }

  const TierValues& tier_weights() const { return tier_weight_; }

 private:
  PageId first_;
  std::uint64_t n_;
  const std::vector<double>* weight_;
  TierValues tier_weight_{};
};

/// Every page move, in order.
struct MoveLog : MigrationListener {
  struct Move {
    PageId p;
    TierId from, to;
  };
  void on_migration(PageId p, TierId from, TierId to) override { moves.push_back({p, from, to}); }
  std::vector<Move> moves;
};

/// A skewed synthetic BE profile of `pages` pages, through the one builder.
BEConfig synthetic_be(std::uint64_t pages, std::uint64_t seed) {
  Rng rng(seed);
  PageProfile prof;
  prof.accesses_per_iteration = 3.0;
  prof.weight.resize(pages);
  double total = 0.0;
  for (std::uint64_t i = 0; i < pages; ++i) {
    prof.weight[i] = (i % 9 == 0 ? 40.0 : 1.0) * rng.next_double();
    total += prof.weight[i];
  }
  for (double& w : prof.weight) w /= total;
  BEConfig cfg;
  cfg.name = "synthetic" + std::to_string(seed);
  cfg.rss = pages * kPageSize;
  cfg.cpu_ns_per_iter = 100;
  cfg.profile = BEProfile::of(prof);
  return cfg;
}

/// One node's tenants and telemetry: workload 0 is a plain tenant (the LC
/// stand-in), 1..4 are BE tenants, and there is one histogram filtered to
/// each workload (PP-E's sinks) plus one unfiltered (MEMTIS's).
struct ListenerNode {
  static constexpr std::uint64_t kPages = 2048;
  static constexpr WorkloadId kTenants = 5;

  explicit ListenerNode(std::size_t tiers) : mem(topology(tiers, kPages)) {
    lc = std::make_unique<AddressSpace>(mem, 0, 280 * kPageSize, kFastestFirst);
    for (WorkloadId w = 1; w < kTenants; ++w)
      be.push_back(std::make_unique<BEWorkload>(mem, w, synthetic_be(250 + 17 * w, w),
                                                kFastestFirst, nullptr, w));
    for (WorkloadId w = 0; w < kTenants; ++w)
      hists.push_back(std::make_unique<PageHotness>(mem, w));
    hists.push_back(std::make_unique<PageHotness>(mem));
    for (auto& h : hists) h->seed_allocated_pages();
  }

  TieredMemory mem;
  std::unique_ptr<AddressSpace> lc;
  std::vector<std::unique_ptr<BEWorkload>> be;
  std::vector<std::unique_ptr<PageHotness>> hists;
};

TEST(FleetNodeEquivalence, OwnerDispatchMatchesBroadcastListeners) {
  // `node` dispatches by owner. `ref` is the same node whose memory never
  // moves a page; each of `node`'s moves is delivered to every one of its
  // histograms instead, as the broadcast did. Its histograms track only
  // seeded pages, so they never ask their own memory for a tier afterwards.
  for (const std::size_t tiers : {std::size_t{2}, std::size_t{3}}) {
    SCOPED_TRACE(testing::Message() << tiers << " tiers");
    ListenerNode node(tiers), ref(tiers);
    std::vector<std::unique_ptr<RefBeWeights>> ref_be;
    for (auto& be : node.be) ref_be.push_back(std::make_unique<RefBeWeights>(node.mem, *be));
    MoveLog log;
    node.mem.add_migration_listener(&log);
    Rng rng(tiers * 31);
    const std::uint64_t pages = node.mem.page_count();
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 5000; ++i) {
        const std::uint32_t op = rng.next_below(100);
        if (op < 70) {
          const auto w = static_cast<WorkloadId>(rng.next_below(ListenerNode::kTenants));
          const std::vector<PageId>& owned = node.mem.pages_of(w);
          const PageId p = owned[rng.next_below(op < 40 ? owned.size() / 8 : owned.size())];
          for (ListenerNode* n : {&node, &ref})
            for (auto& h : n->hists) h->record_access(w, p);
        } else if (op < 85) {
          node.mem.migrate(static_cast<PageId>(rng.next_below(pages)),
                           static_cast<TierId>(rng.next_below(tiers)));
        } else if (op < 97) {
          const auto a = static_cast<PageId>(rng.next_below(pages));
          const auto b = static_cast<PageId>(rng.next_below(pages));
          if (node.mem.tier_of(a) != node.mem.tier_of(b)) node.mem.exchange(a, b);
        } else {
          for (ListenerNode* n : {&node, &ref})
            for (auto& h : n->hists) h->age();
        }
        for (const MoveLog::Move& m : log.moves)
          for (auto& h : ref.hists) static_cast<MigrationListener&>(*h).on_migration(m.p, m.from, m.to);
        log.moves.clear();
      }
      for (std::size_t i = 0; i < node.be.size(); ++i) {
        const TierValues& got = node.be[i]->tier_weights();
        const TierValues& want = ref_be[i]->tier_weights();
        for (std::size_t t = 0; t < kMaxTiers; ++t)
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got[t]), std::bit_cast<std::uint64_t>(want[t]))
              << "BE " << i << " tier " << t;
      }
      for (std::size_t i = 0; i < node.hists.size(); ++i) {
        ASSERT_EQ(node.hists[i]->tracked_pages(), ref.hists[i]->tracked_pages());
        for (TierId t = 0; t < tiers; ++t)
          for (int b = 0; b < PageHotness::kBins; ++b)
            ASSERT_EQ(node.hists[i]->bin_pages(t, b), ref.hists[i]->bin_pages(t, b))
                << "histogram " << i << " tier " << int{t} << " bin " << b;
      }
    }
    EXPECT_GT(node.mem.total_migrations(), 1000u);
  }
}

// ------------------------------------------------------------ whole nodes ----

SimConfig small_node(PolicyKind policy, std::uint64_t n_records, Bytes be_rss) {
  SimConfig cfg;
  cfg.fmem = 32_MiB;
  cfg.smem = 512_MiB;
  cfg.lc = redis_config();
  cfg.lc.n_records = n_records;
  cfg.be = be_suite(BEScale::kTest, be_rss, 4, 4);
  cfg.policy = policy;
  cfg.bandwidth.enabled = true;
  cfg.seed = 4242;
  return cfg;
}

TEST(FleetNodeEquivalence, EveryWorkloadSamplesOnlyPagesItOwns) {
  // MEMTIS (one unfiltered histogram) and MTAT (PP-E's five filtered ones),
  // under a full-intensity in-node fault storm, so corrupted samples (which
  // are redrawn from the sampling workload's pages) are checked too.
  for (const PolicyKind policy : {PolicyKind::kMemtis, PolicyKind::kMtatFull}) {
    SCOPED_TRACE(policy_name(policy));
    obs::RunContext ctx(obs::RunContext::TraceMode::kPrivate);
    ctx.install_faults(faults::FaultPlan::storm(1.0));
    const SimConfig cfg = small_node(policy, 30'000, 20_MiB);
    ColocationSim sim(cfg, &ctx);
    std::uint64_t samples = 0;
    std::uint64_t foreign = 0;
    sim.sampler().add_callback([&](WorkloadId w, PageId p, AccessKind) {
      ++samples;
      foreign += sim.mem().owner_of(p) != w ? 1 : 0;
    });
    sim.run(LoadPattern::constant(0.6 * cfg.lc.max_load_krps * 1000.0), seconds(3));
    EXPECT_GT(samples, 10'000u);
    EXPECT_EQ(foreign, 0u);
    const obs::Counter* corrupted = ctx.metrics().find_counter(obs::names::kFaultSamplesCorrupted);
    ASSERT_NE(corrupted, nullptr);
    EXPECT_GT(corrupted->value(), 0.0);
  }
}

TEST(FleetNodeEquivalence, ColdMemoBootsRaceToIdenticalNodes) {
  // Two workers build one node config and boot it at once. The LC record
  // count and BE footprint are shapes no other test uses, so the HashStore
  // and stretched-profile memos are cold when the workers race to fill them
  // (and every memo is, when this test runs in a process of its own).
  const auto boot_and_run = [](obs::RunContext& ctx) {
    ColocationSim sim(small_node(PolicyKind::kMemtis, 23'456, 21_MiB + 3 * kPageSize), &ctx);
    sim.run(LoadPattern::constant(6000.0), seconds(2));
    return std::pair{sim.fingerprint(), sim.result()};
  };
  std::vector<std::pair<std::string, SimResult>> got(2);
  std::vector<experiments::RunSpec> specs;
  for (std::size_t i = 0; i < got.size(); ++i)
    specs.push_back({"node" + std::to_string(i),
                     [&got, &boot_and_run, i](obs::RunContext& ctx) { got[i] = boot_and_run(ctx); }});
  experiments::ParallelRunner(2).run_all(specs);

  obs::RunContext warm_ctx(obs::RunContext::TraceMode::kPrivate);
  const auto warm = boot_and_run(warm_ctx);  // every memo hit now
  for (const auto& [fingerprint, result] : got) {
    EXPECT_EQ(fingerprint, warm.first);
    EXPECT_EQ(result.lc_completed, warm.second.lc_completed);
    EXPECT_EQ(result.lc_p99_ms, warm.second.lc_p99_ms);
    EXPECT_EQ(result.be_rate, warm.second.be_rate);
    EXPECT_EQ(result.fairness, warm.second.fairness);
    EXPECT_EQ(result.migration_bytes_per_sec, warm.second.migration_bytes_per_sec);
  }
}

}  // namespace
}  // namespace mtat

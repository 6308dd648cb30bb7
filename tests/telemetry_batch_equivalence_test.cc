// Differential test for the batched telemetry ingest path.
//
// RefSampler and RefBeSamples below transcribe the sample-at-a-time path the
// batches replaced. BEWorkload::tick drew one alias sample at a time and
// called AccessSampler::on_sampled_access for each, which drew that sample's
// fault decisions, bumped the FMem/SMem/per-tier/read/write counters, and fed
// every PageHotness sink and then every callback before the next sample.
// AddressSpace::access_page_n did the same once per due sample. This is the
// executable spec of the old order.
//
// Each test builds two identical worlds. One runs the batched code. The other
// ticks the same BE tenants with no sampler attached and replays their sample
// streams, and the LC address space's, through the transcription into a
// registry AccessSampler that holds the sinks and callbacks but is never fed.
// Afterwards the interval counters, every sink's bins and tracked pages, the
// fault counts and — with TPP, DAMON or MEMTIS-HP attached — the placement
// the policies derive from their callback-side state must all match. Batch
// sizes cover the chunk boundaries 0, 1, chunk - 1, chunk and chunk + 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/alias_sampler.h"
#include "common/rng.h"
#include "faults/fault_injector.h"
#include "mem/address_space.h"
#include "mem/migration_engine.h"
#include "mem/tiered_memory.h"
#include "obs/names.h"
#include "obs/run_context.h"
#include "policy/damon_policy.h"
#include "policy/memtis_hp_policy.h"
#include "policy/tpp_policy.h"
#include "telemetry/access_sampler.h"
#include "telemetry/page_hotness.h"
#include "workloads/be/be_workload.h"

namespace mtat {
namespace {

constexpr std::size_t kChunk = BEWorkload::kSampleChunk;
const std::vector<std::size_t> kBoundarySizes = {0, 1, kChunk - 1, kChunk, kChunk + 1};

/// The old IntervalCounters: FMem and SMem counts kept beside the per-tier ones.
struct RefCounters {
  std::uint64_t fmem_accesses = 0;
  std::uint64_t smem_accesses = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::array<std::uint64_t, kMaxTiers> tier_accesses{};
};

/// The old AccessSampler::on_sampled_access, fanning out to the sinks and
/// callbacks registered on `registry`.
class RefSampler {
 public:
  RefSampler(const TieredMemory& mem, const AccessSampler& registry,
             faults::FaultInjector* faults)
      : mem_(&mem), registry_(&registry), faults_(faults) {}

  void on_sampled_access(WorkloadId w, PageId p, AccessKind kind) {
    if (faults_ != nullptr) {
      if (faults_->drop_sample()) {
        ++dropped_;
        return;
      }
      if (faults_->corrupt_sample()) {
        const std::vector<PageId>& pages = mem_->pages_of(w);
        if (!pages.empty()) {
          p = pages[faults_->pick(pages.size())];
          ++corrupted_;
        }
      }
    }
    if (current_.size() <= w) current_.resize(static_cast<std::size_t>(w) + 1);
    RefCounters& c = current_[w];
    const TierId tier = mem_->tier_of(p);
    if (tier == kFastestTier)
      ++c.fmem_accesses;
    else
      ++c.smem_accesses;
    ++c.tier_accesses[tier];
    if (kind == AccessKind::kRead)
      ++c.reads;
    else
      ++c.writes;
    for (PageHotness* h : registry_->sinks()) h->record_access(w, p);
    for (const auto& cb : registry_->callbacks()) cb(w, p, kind);
  }

  RefCounters collect(WorkloadId w) {
    if (current_.size() <= w) return {};
    const RefCounters out = current_[w];
    current_[w] = {};
    return out;
  }

  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t corrupted() const { return corrupted_; }

 private:
  const TieredMemory* mem_;
  const AccessSampler* registry_;
  faults::FaultInjector* faults_;
  std::vector<RefCounters> current_;
  std::uint64_t dropped_ = 0;
  std::uint64_t corrupted_ = 0;
};

/// The old BEWorkload::tick sample stream of one tenant, replayed next to a
/// BEWorkload built without a sampler (which still accrues the iterations).
class RefBeSamples {
 public:
  RefBeSamples(BEWorkload& be, std::uint64_t seed)
      : alias_(be.config().profile.tables->weight), rng_(seed), first_page_(be.space().pages().front()) {}

  /// Tick `be` by `dt` and emit its samples one at a time; returns how many.
  std::uint64_t tick(BEWorkload& be, Duration dt, RefSampler& sampler) {
    be.take_interval_iterations();
    be.tick(dt);
    const double iters = be.take_interval_iterations();  // exactly the tick's iters
    const BEConfig& cfg = be.config();
    sample_carry_ += iters * cfg.profile.accesses_per_iteration /
                     static_cast<double>(cfg.sample_period);
    const auto n = static_cast<std::uint64_t>(sample_carry_);
    sample_carry_ -= static_cast<double>(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint32_t vpage = alias_(rng_);
      sampler.on_sampled_access(be.id(), first_page_ + vpage, AccessKind::kRead);
    }
    return n;
  }

  double carry() const { return sample_carry_; }

 private:
  AliasSampler alias_;
  Rng rng_;
  PageId first_page_;
  double sample_carry_ = 0.0;
};

/// A skewed synthetic profile over a non-power-of-two page count, with
/// zero-weight pages the alias table never returns directly.
BEConfig synthetic_be(std::size_t pages, std::uint64_t seed) {
  Rng rng(seed);
  BEConfig cfg;
  cfg.name = "synthetic";
  cfg.rss = pages * kPageSize;
  cfg.cpu_ns_per_iter = 200;
  cfg.cores = 4;
  cfg.sample_period = 512;
  PageProfile profile;
  profile.accesses_per_iteration = 2.0;
  profile.weight.resize(pages);
  double total = 0.0;
  for (std::size_t i = 0; i < pages; ++i) {
    const double u = rng.next_double();
    const double w = i % 7 == 3 ? 0.0 : (i % 10 == 0 ? 50.0 * u : u);
    profile.weight[i] = w;
    total += w;
  }
  for (double& w : profile.weight) w /= total;
  cfg.profile = BEProfile::of(profile);
  return cfg;
}

enum class Attach { kNone, kTpp, kDamon, kMemtisHp };

constexpr WorkloadId kLc = 0;
constexpr std::uint64_t kLcSamplePeriod = 8;
const std::array<std::size_t, 3> kBePages = {1500, 2333, 3001};

/// One node: an LC address space, three BE tenants, PP-E-style per-workload
/// sinks plus one global sink, and optionally a callback-driven policy. The
/// batched world feeds `sampler`; the reference world leaves it as the
/// registry and replays every stream through `ref`.
struct World {
  TieredMemory mem;
  obs::RunContext ctx{obs::RunContext::TraceMode::kPrivate};
  MigrationEngine engine;
  AccessSampler sampler;
  std::unique_ptr<AddressSpace> lc;
  std::vector<std::unique_ptr<PageHotness>> sinks;
  std::vector<std::unique_ptr<BEWorkload>> be;
  std::unique_ptr<TieringPolicy> policy;
  std::unique_ptr<RefSampler> ref;  // reference world only
  std::vector<RefBeSamples> ref_be;  // reference world only

  World(bool reference, const faults::FaultPlan* plan, Attach attach)
      : mem(TieredMemory::Config::two_tier(1024, 16384)), engine(mem, {1e12}), sampler(mem) {
    if (plan != nullptr) {
      ctx.install_faults(*plan);
      if (!reference) sampler.set_faults(ctx.faults(), ctx);
    }
    lc = std::make_unique<AddressSpace>(mem, kLc, 600 * kPageSize, kFastestFirst,
                                        kLcSamplePeriod);
    if (!reference) lc->set_observer(&sampler);
    for (std::size_t i = 0; i < kBePages.size(); ++i) {
      const auto id = static_cast<WorkloadId>(i + 1);
      const std::uint64_t seed = 1000 + i;
      be.push_back(std::make_unique<BEWorkload>(mem, id, synthetic_be(kBePages[i], 77 + i),
                                                kFastestFirst, reference ? nullptr : &sampler,
                                                seed));
      if (reference) ref_be.emplace_back(*be.back(), seed);
    }
    for (WorkloadId w = 0; w <= kBePages.size(); ++w)
      sinks.push_back(std::make_unique<PageHotness>(mem, w));
    sinks.push_back(std::make_unique<PageHotness>(mem));
    for (auto& h : sinks) {
      h->seed_allocated_pages();
      sampler.add_sink(h.get());
    }
    PolicyContext pc;
    pc.mem = &mem;
    pc.engine = &engine;
    pc.sampler = &sampler;
    pc.tenants.push_back(TenantInfo{kLc, true});
    for (const auto& b : be) pc.tenants.push_back(TenantInfo{b->id(), false});
    switch (attach) {
      case Attach::kNone: break;
      case Attach::kTpp: policy = std::make_unique<TppPolicy>(pc); break;
      case Attach::kDamon: policy = std::make_unique<DamonPolicy>(pc); break;
      case Attach::kMemtisHp: policy = std::make_unique<MemtisHpPolicy>(pc); break;
    }
    if (reference) ref = std::make_unique<RefSampler>(mem, sampler, ctx.faults());
  }

  /// Tick BE tenant `i` by `dt`; returns the reference's sample count (the
  /// batched world's count is not observable, and equal state proves it).
  std::uint64_t tick_be(std::size_t i, Duration dt) {
    if (ref == nullptr) {
      be[i]->tick(dt);
      return 0;
    }
    return ref_be[i].tick(*be[i], dt, *ref);
  }

  /// `n` modelled misses on LC virtual page `vpage`.
  void lc_access(std::uint64_t vpage, std::uint64_t n, AccessKind kind) {
    if (ref == nullptr) {
      lc->access_page_n(vpage, n, kind);
      return;
    }
    const std::uint64_t before = lc->total_accesses() / kLcSamplePeriod;
    lc->access_page_n(vpage, n, kind);
    const std::uint64_t samples = lc->total_accesses() / kLcSamplePeriod - before;
    for (std::uint64_t i = 0; i < samples; ++i)
      ref->on_sampled_access(kLc, lc->page_at_index(vpage), kind);
  }

  /// Feed `pages` of workload `w` straight to the sampler, as one batch.
  void ingest(WorkloadId w, std::vector<PageId> pages, AccessKind kind) {
    if (ref == nullptr) {
      sampler.on_samples(w, pages, kind);
      return;
    }
    for (const PageId p : pages) ref->on_sampled_access(w, p, kind);
  }

  void set_now(SimTime now) {
    if (ctx.faults() != nullptr) ctx.faults()->set_now(now);
  }

  double fault_count(const char* name) const {
    if (ref != nullptr)
      return static_cast<double>(std::string_view(name) == obs::names::kFaultSamplesDropped
                                     ? ref->dropped()
                                     : ref->corrupted());
    const obs::Counter* c = ctx.metrics().find_counter(name);
    return c != nullptr ? c->value() : 0.0;
  }
};

/// Interval counters of every workload (read and reset on both sides), every
/// sink's bins and tracked pages, the fault counts, and the placement.
void expect_same_state(World& got, World& want, const char* where) {
  SCOPED_TRACE(where);
  for (WorkloadId w = 0; w <= kBePages.size(); ++w) {
    const IntervalCounters g = got.sampler.collect(w);
    const RefCounters r = want.ref->collect(w);
    EXPECT_EQ(g.fmem_accesses(), r.fmem_accesses) << "workload " << w;
    EXPECT_EQ(g.smem_accesses(), r.smem_accesses) << "workload " << w;
    EXPECT_EQ(g.reads, r.reads) << "workload " << w;
    EXPECT_EQ(g.writes, r.writes) << "workload " << w;
    EXPECT_EQ(g.tier_accesses, r.tier_accesses) << "workload " << w;
  }
  const auto& gs = got.sampler.sinks();
  const auto& ws = want.sampler.sinks();
  ASSERT_EQ(gs.size(), ws.size());
  for (std::size_t i = 0; i < gs.size(); ++i) {
    EXPECT_EQ(gs[i]->tracked_pages(), ws[i]->tracked_pages()) << "sink " << i;
    for (TierId t = 0; t < got.mem.tier_count(); ++t)
      for (int b = 0; b < PageHotness::kBins; ++b)
        ASSERT_EQ(gs[i]->bin_pages(t, b), ws[i]->bin_pages(t, b))
            << "sink " << i << " tier " << static_cast<int>(t) << " bin " << b;
  }
  for (const char* name : {obs::names::kFaultSamplesDropped, obs::names::kFaultSamplesCorrupted})
    EXPECT_EQ(got.fault_count(name), want.fault_count(name)) << name;
  ASSERT_EQ(got.mem.page_count(), want.mem.page_count());
  for (PageId p = 0; p < got.mem.page_count(); ++p)
    ASSERT_EQ(got.mem.tier_of(p), want.mem.tier_of(p)) << "page " << p;
}

/// Sample loss and corruption everywhere, plus a blackout at [0.5 s, 0.6 s).
faults::FaultPlan telemetry_storm() {
  faults::FaultPlan plan;
  plan.sample_loss_prob = 0.1;
  plan.sample_corruption_prob = 0.05;
  plan.telemetry_blackouts = {{milliseconds(500), milliseconds(100), 0}};
  return plan;
}

TEST(TelemetryBatchEquivalence, AliasDrawMatchesTheOperatorSequence) {
  // 1000 columns: not a power of two, so next_below's Lemire rejection
  // threshold (2^64 mod n) is nonzero and the rejection loop is live. The
  // batch draw calls the same next_below, so the RNG state afterwards
  // checks that it pulls exactly the values operator() would, in order.
  const BEConfig cfg = synthetic_be(1000, 5);
  const AliasSampler alias(cfg.profile.tables->weight);
  std::vector<std::size_t> sizes = kBoundarySizes;
  sizes.push_back(3 * kChunk + 17);
  for (const std::size_t n : sizes) {
    Rng a(99 + n), b(99 + n);
    std::vector<std::uint32_t> batch(n);
    alias.draw(a, batch);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(batch[i], alias(b)) << "n " << n << " draw " << i;
    EXPECT_EQ(a.next_u64(), b.next_u64()) << "n " << n;
  }
}

class TelemetryBatchFaults : public ::testing::TestWithParam<bool> {
 protected:
  std::unique_ptr<World> make(bool reference, Attach attach = Attach::kNone) {
    plan_ = telemetry_storm();
    return std::make_unique<World>(reference, GetParam() ? &plan_ : nullptr, attach);
  }

 private:
  faults::FaultPlan plan_;
};

TEST_P(TelemetryBatchFaults, SamplerBatchesMatchPerSampleIngest) {
  auto got = make(false);
  auto want = make(true);
  Rng rng(3);
  SimTime now = 0;
  for (int round = 0; round < 4; ++round) {
    for (const std::size_t n : kBoundarySizes) {
      const auto w = static_cast<WorkloadId>(rng.next_below(kBePages.size() + 1));
      const std::vector<PageId>& owned = got->mem.pages_of(w);
      std::vector<PageId> pages(n);
      for (PageId& p : pages) p = owned[rng.next_below(owned.size())];
      const AccessKind kind = rng.next_bool(0.3) ? AccessKind::kWrite : AccessKind::kRead;
      for (World* world : {got.get(), want.get()}) {
        world->set_now(now);
        world->ingest(w, pages, kind);
      }
      now += milliseconds(30);
      expect_same_state(*got, *want, "direct batch");
    }
  }
}

TEST_P(TelemetryBatchFaults, BeTicksMatchPerSampleTicks) {
  auto got = make(false);
  auto want = make(true);
  SimTime now = 0;
  // Ticks sized to emit exactly each boundary count: placement is static
  // here, so a tenant's sample rate is fixed and the tick length picks n.
  for (std::size_t i = 0; i < kBePages.size(); ++i) {
    const BEWorkload& be = *want->be[i];
    const double per_ns = be.current_rate() * be.config().profile.accesses_per_iteration /
                          static_cast<double>(be.config().sample_period) / 1e9;
    for (const std::size_t target : kBoundarySizes) {
      const double due = static_cast<double>(target) + 0.5 - want->ref_be[i].carry();
      const auto dt = static_cast<Duration>(std::max(0.0, std::round(due / per_ns)));
      for (World* world : {got.get(), want.get()}) world->set_now(now);
      got->tick_be(i, dt);
      ASSERT_EQ(want->tick_be(i, dt), target) << "tenant " << i;
      now += milliseconds(30);
      expect_same_state(*got, *want, "sized tick");
    }
  }
  // Then ordinary 10 ms ticks of every tenant (a few hundred samples each,
  // so multi-chunk ticks), across the blackout window.
  for (int t = 0; t < 80; ++t) {
    for (World* world : {got.get(), want.get()}) {
      world->set_now(now);
      for (std::size_t i = 0; i < kBePages.size(); ++i) world->tick_be(i, milliseconds(10));
    }
    now += milliseconds(10);
    if (t % 10 == 9) expect_same_state(*got, *want, "10 ms tick");
  }
}

TEST_P(TelemetryBatchFaults, LcAccessPageNMatchesPerSampleEmission) {
  auto got = make(false);
  auto want = make(true);
  // Sample counts per call around the address space's batch: 0 to 130 at a
  // sample period of 8.
  const std::vector<std::uint64_t> misses = {1, 7, 8, 9, 500, 511, 512, 513, 1040, 3};
  Rng rng(11);
  SimTime now = 0;
  for (int round = 0; round < 3; ++round) {
    for (const std::uint64_t n : misses) {
      const std::uint64_t vpage = rng.next_below(got->lc->num_pages());
      const AccessKind kind = rng.next_bool(0.5) ? AccessKind::kWrite : AccessKind::kRead;
      for (World* world : {got.get(), want.get()}) {
        world->set_now(now);
        world->lc_access(vpage, n, kind);
      }
      now += milliseconds(20);
    }
    expect_same_state(*got, *want, "access_page_n");
  }
}

INSTANTIATE_TEST_SUITE_P(Faults, TelemetryBatchFaults, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "storm" : "clean";
                         });

/// TPP, DAMON and MEMTIS-HP take the stream through callbacks (MEMTIS-HP
/// also through its own sink) and turn it into migrations; identical
/// placement after every tick and interval shows identical callback state.
class TelemetryBatchPolicies : public ::testing::TestWithParam<Attach> {};

TEST_P(TelemetryBatchPolicies, CallbackStateMatchesPerSampleIngest) {
  const faults::FaultPlan plan = telemetry_storm();
  World got(false, &plan, GetParam());
  World want(true, &plan, GetParam());
  Rng rng(21);
  SimTime now = 0;
  for (int t = 0; t < 150; ++t) {
    const std::uint64_t vpage = rng.next_below(got.lc->num_pages());
    const std::uint64_t n = 1 + rng.next_below(200);
    for (World* world : {&got, &want}) {
      world->set_now(now);
      world->engine.begin_interval(milliseconds(10));
      world->policy->on_tick(now, milliseconds(10));
      for (std::size_t i = 0; i < kBePages.size(); ++i) world->tick_be(i, milliseconds(10));
      world->lc_access(vpage, n, AccessKind::kRead);
    }
    now += milliseconds(10);
    if (t % 25 == 24) {
      for (World* world : {&got, &want}) world->policy->on_interval(now, milliseconds(250), 0);
      expect_same_state(got, want, "interval");
    }
  }
  EXPECT_GT(got.mem.total_migrations(), 0u);  // the policy acted on what it saw
}

INSTANTIATE_TEST_SUITE_P(Policies, TelemetryBatchPolicies,
                         ::testing::Values(Attach::kTpp, Attach::kDamon, Attach::kMemtisHp),
                         [](const ::testing::TestParamInfo<Attach>& info) {
                           switch (info.param) {
                             case Attach::kTpp: return "tpp";
                             case Attach::kDamon: return "damon";
                             case Attach::kMemtisHp: return "memtis_hp";
                             case Attach::kNone: break;
                           }
                           return "none";
                         });

}  // namespace
}  // namespace mtat

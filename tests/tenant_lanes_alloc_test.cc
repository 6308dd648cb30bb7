// Tenant lanes must not allocate (DESIGN.md §14.7). A lane that grew a
// vector would do it in a glibc malloc arena of its own, and the node's
// peak RSS grows by the arenas' slack: 69.5 -> 80.0 MiB on node_mtat when
// lanes grew PP-E bins themselves. The sim's thread therefore sizes
// everything a tick's ingest could grow before it forks.
//
// This binary replaces the global operator new to count calls made on any
// thread but the test's own, then drives an MTAT node through
// intervals of PP-M decisions, PP-E plans and aging with lanes on. Those
// intervals' SAC updates run their kernel chunks on the same lanes, so the
// count covers on_interval too. It is a binary of its own so the counting
// allocator stays out of every other test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>

#include "common/host_cpus.h"
#include "obs/names.h"
#include "sim/colocation_sim.h"
#include "workloads/be/be_suite.h"

namespace {

// The test's thread, written once before g_armed publishes it (static
// initializers allocate before any id could be recorded); g_armed is set
// and cleared by the test; the count is bumped by allocating threads and
// read by the test after the sim has joined its lanes.
std::thread::id g_test_thread;                        // mtat-lint: allow(shared-mutable)
std::atomic<bool> g_armed{false};                     // mtat-lint: allow(shared-mutable)
std::atomic<std::size_t> g_off_test_allocations{0};  // mtat-lint: allow(shared-mutable)

void* counted_alloc(std::size_t n) {
  if (g_armed.load(std::memory_order_acquire) && std::this_thread::get_id() != g_test_thread)
    g_off_test_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

}  // namespace

// The replaceable forms that route to malloc in this binary; each delete
// matches (ASan checks allocator/deallocator pairs).
void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace mtat {
namespace {

SimConfig node_config() {
  SimConfig cfg;
  cfg.fmem = 32_MiB;
  cfg.smem = 512_MiB;
  cfg.lc = redis_config();
  cfg.lc.n_records = 30'000;
  cfg.be = be_suite(BEScale::kTest, 24_MiB, 4, 4);
  cfg.policy = PolicyKind::kMtatFull;
  cfg.bandwidth.enabled = true;
  cfg.interval = milliseconds(250);
  cfg.mtat.ppm.sac.min_buffer_for_update = 2;
  cfg.mtat.ppm.sac.batch_size = 4;
  return cfg;
}

TEST(TenantLanesAlloc, LanesNeverAllocate) {
  if (host_lane_limit() == 0) GTEST_SKIP() << "the host allows no tenant lane";
  const SimConfig cfg = node_config();
  ColocationSim sim(cfg);
  sim.set_tenant_lanes(3);
  g_test_thread = std::this_thread::get_id();
  g_armed.store(true, std::memory_order_release);
  const double max_rps = cfg.lc.max_load_krps * 1000.0;
  // Rising load, each step its own run(): lanes start afresh, and hot pages
  // keep crossing into bins that were empty.
  for (const double f : {0.3, 0.6, 0.9, 0.5}) {
    const LoadPattern step = LoadPattern::constant(f * max_rps);
    sim.run(step, seconds(1));
    ASSERT_GT(sim.last_run_lanes(), 0u);
  }
  g_armed.store(false, std::memory_order_release);
  EXPECT_EQ(g_off_test_allocations.load(), 0u);
}

TEST(TenantLanesAlloc, SacUpdatesOnLanesNeverAllocate) {
  if (host_lane_limit() == 0) GTEST_SKIP() << "the host allows no tenant lane";
  // An update every 50 ms on batches of up to 40 rows: five row chunks per
  // forward pass, ten parameter blocks per critic, all claimable by lanes.
  SimConfig cfg = node_config();
  cfg.interval = milliseconds(50);
  cfg.mtat.ppm.sac.batch_size = 40;
  ColocationSim sim(cfg);
  sim.set_tenant_lanes(3);
  g_test_thread = std::this_thread::get_id();
  g_armed.store(true, std::memory_order_release);
  sim.run(LoadPattern::constant(0.6 * cfg.lc.max_load_krps * 1000.0), seconds(4));
  g_armed.store(false, std::memory_order_release);
  ASSERT_GT(sim.last_run_lanes(), 0u);
  EXPECT_GT(sim.metrics().counter(obs::names::kRlUpdates).value(), 60.0);
  EXPECT_EQ(g_off_test_allocations.load(), 0u);
}

}  // namespace
}  // namespace mtat

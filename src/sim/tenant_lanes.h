// Tenant lanes: a node's BE sample streams, run beside its LC queue.
//
// In the paper's testbed the LC server and the BE tenants run at the same
// time on cores of their own. ColocationSim's tick reproduces that with
// helper threads when it can do so exactly (DESIGN.md §14.7): the sim's own
// thread prepares every BE tenant's tick (rate, stall, sample count) and
// runs the LC queue, while each lane draws and ingests the samples of the
// tenants pinned to it. Emitting touches only the tenant's RNG, its sampler
// row and its own PageHotness sinks, so the result is the serial loop's bit
// for bit, whichever thread emits a tenant.
//
// Every tenant is emitted exactly once per tick by whoever claims it first:
// its lane, or the sim's thread once the LC queue is done. A lane whose CPU
// is taken away (a preempted vCPU, an oversubscribed host) then delays the
// tick by at most the tenant it has started, not by its wake-up.
//
// Between ticks the lanes are also a ChunkTeam (common/chunk_team.h): PP-M
// trains its SAC agent in regions of fixed chunks. Each member of the team
// (the sim's thread, then each lane) owns an equal run of a region's chunks
// and claims them from a counter of its own, then takes what is left of the
// others' runs. A region of the same size thus keeps its chunks, and the
// parameters they update, on the same core from one update to the next,
// while any member may still finish any chunk: the caller never waits for
// a lane to wake, and a stolen lane holds a region by at most the one chunk
// it started.
//
// Lanes live for one ColocationSim::run() call: they start at its first
// tick and are joined before it returns. Between jobs they spin briefly,
// then sleep on the job counter.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "common/chunk_team.h"
#include "workloads/be/be_workload.h"

namespace mtat {

class TenantLanes final : public ChunkTeam {
 public:
  /// Starts `lanes` >= 1 threads and pins every tenant to one of them for
  /// the object's life (join() may still take it over): largest pending
  /// sample count first, each onto the lane with the fewest samples so far.
  /// Lanes beyond the tenant count only run regions.
  TenantLanes(const std::vector<BEWorkload*>& tenants, std::size_t lanes);

  /// Finishes the tick in flight without emitting its unclaimed tenants,
  /// then stops and joins the lanes.
  ~TenantLanes();

  TenantLanes(const TenantLanes&) = delete;
  TenantLanes& operator=(const TenantLanes&) = delete;

  /// Starts a tick: the lanes emit() their tenants' prepared samples. The
  /// caller must not touch the tenants or their sampler state until join()
  /// returns.
  void fork();

  /// Emits, on the calling thread, every tenant no lane has claimed yet,
  /// waits for the ones that lanes did, then rethrows the first exception a
  /// tenant's emit() threw, if any.
  void join();

  /// ChunkTeam: a region on the lanes and the calling thread. Not between
  /// fork() and join().
  void run(std::size_t chunks, ChunkFn fn, const void* body) override;

  std::size_t size() const { return threads_.size(); }

 private:
  struct Slot {
    BEWorkload* tenant = nullptr;
    std::atomic<std::uint32_t> tick{0};  // the last tick whose emit was claimed
    std::exception_ptr error;            // written by the claimer, read after join
  };

  /// Claims `s` for tick `t`; on success emits it when `emit` is set and
  /// counts it done. False when another thread claimed it first.
  bool claim(Slot& s, std::uint32_t t, bool emit);
  /// Runs chunks of the region in flight, member `self`'s run first, until
  /// none is left unclaimed; returns how many this thread ran.
  std::uint32_t drain_region(std::size_t self);
  void lane_main(std::size_t self, const std::vector<Slot*>& slots);
  void wait_done();
  void stop();

  std::unique_ptr<Slot[]> slots_;
  std::size_t n_slots_ = 0;
  std::vector<std::vector<Slot*>> lanes_;  // each lane's slots, heaviest first
  std::vector<std::thread> threads_;
  // One member's run of the region in flight: end << 32 | next chunk, so a
  // claim reads both in one step.
  struct alignas(64) Run {
    std::atomic<std::uint64_t> word{0};
  };

  // The job counter lanes wait on (bumped by every tick and region), then
  // the tick number, the count of tenants the tick has left and the
  // region's count of chunks not yet finished, each on a line of its own:
  // lanes poll the first while they write the others.
  alignas(64) std::atomic<std::uint32_t> jobs_{0};
  alignas(64) std::atomic<std::uint32_t> tick_{0};
  alignas(64) std::atomic<std::uint32_t> remaining_{0};
  alignas(64) std::atomic<std::uint32_t> region_left_{0};
  std::size_t members_ = 0;      // the caller and every lane
  std::unique_ptr<Run[]> runs_;  // one per member, the caller's first
  // The region's body: written by run() before it publishes claim_, read
  // by a lane only once it holds a chunk of that region.
  ChunkFn region_fn_ = nullptr;
  const void* region_body_ = nullptr;
  std::atomic<bool> stop_{false};
};

}  // namespace mtat

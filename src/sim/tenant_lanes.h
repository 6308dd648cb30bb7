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
// Lanes live for one ColocationSim::run() call: they start at its first
// tick and are joined before it returns. Between ticks they spin briefly,
// then sleep on the tick counter.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "workloads/be/be_workload.h"

namespace mtat {

class TenantLanes {
 public:
  /// Starts min(lanes, tenants.size()) threads, lanes >= 1, and pins every
  /// tenant to one of them for the object's life (join() may still take it
  /// over): largest pending sample count first, each onto the lane with the
  /// fewest samples so far.
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
  void lane_main(const std::vector<Slot*>& slots);
  void wait_done();
  void stop();

  std::unique_ptr<Slot[]> slots_;
  std::size_t n_slots_ = 0;
  std::vector<std::vector<Slot*>> lanes_;  // each lane's slots, heaviest first
  std::vector<std::thread> threads_;
  // The tick counter lanes wait on and the count of tenants the tick has
  // left, on lines of their own: lanes poll the first while they write the
  // second.
  alignas(64) std::atomic<std::uint32_t> tick_{0};
  alignas(64) std::atomic<std::uint32_t> remaining_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace mtat

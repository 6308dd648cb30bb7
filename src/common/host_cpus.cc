#include "common/host_cpus.h"

#include <sched.h>

#include <thread>

namespace mtat {
namespace {

std::size_t probe() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0)
    return static_cast<std::size_t>(CPU_COUNT(&set));
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace

std::size_t usable_cpus() {
  static const std::size_t cpus = probe();
  return cpus;
}

std::size_t host_lane_limit() { return usable_cpus() - 1; }

}  // namespace mtat

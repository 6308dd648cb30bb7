#include "sim/tenant_lanes.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace mtat {
namespace {

// About 40 µs of polling at 19 ns a pause (measured on the 4-vCPU Xeon VM):
// longer than a tick's gap between join and the next fork or a SAC
// update's between two regions, far shorter than an interval rollover,
// after which lanes sleep until the next job.
constexpr int kSpin = 2048;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Returns the value of `a` once it differs from `old`.
std::uint32_t await_change(const std::atomic<std::uint32_t>& a, std::uint32_t old) {
  for (int i = 0; i < kSpin; ++i) {
    const std::uint32_t v = a.load(std::memory_order_acquire);
    if (v != old) return v;
    cpu_relax();
  }
  for (;;) {
    a.wait(old, std::memory_order_acquire);
    const std::uint32_t v = a.load(std::memory_order_acquire);
    if (v != old) return v;
  }
}

// Returns once `a` reads 0.
void await_zero(const std::atomic<std::uint32_t>& a) {
  for (int i = 0; i < kSpin; ++i) {
    if (a.load(std::memory_order_acquire) == 0) return;
    cpu_relax();
  }
  for (std::uint32_t v; (v = a.load(std::memory_order_acquire)) != 0;)
    a.wait(v, std::memory_order_acquire);
}

}  // namespace

TenantLanes::TenantLanes(const std::vector<BEWorkload*>& tenants, std::size_t lanes)
    : slots_(std::make_unique<Slot[]>(tenants.size())), n_slots_(tenants.size()) {
  const std::size_t k = std::max<std::size_t>(lanes, 1);
  std::vector<std::size_t> order(tenants.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&tenants](std::size_t a, std::size_t b) {
    return tenants[a]->pending_samples() > tenants[b]->pending_samples();
  });
  // Longest first onto the least-loaded lane; the +1 spreads idle tenants
  // too, so every lane gets one before any gets two.
  lanes_.resize(k);
  std::vector<std::uint64_t> load(k, 0);
  for (std::size_t j = 0; j < order.size(); ++j) {
    const std::size_t i = order[j];
    const auto lane =
        static_cast<std::size_t>(std::min_element(load.begin(), load.end()) - load.begin());
    slots_[j].tenant = tenants[i];
    lanes_[lane].push_back(&slots_[j]);
    load[lane] += tenants[i]->pending_samples() + 1;
  }
  members_ = k + 1;
  runs_ = std::make_unique<Run[]>(members_);
  threads_.reserve(k);
  try {
    for (std::size_t i = 0; i < k; ++i)
      threads_.emplace_back([this, i] { lane_main(i + 1, lanes_[i]); });
  } catch (...) {
    stop();
    throw;
  }
}

TenantLanes::~TenantLanes() { stop(); }

void TenantLanes::stop() {
  const std::uint32_t t = tick_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < n_slots_; ++i) claim(slots_[i], t, /*emit=*/false);
  wait_done();
  stop_.store(true, std::memory_order_relaxed);
  jobs_.fetch_add(1, std::memory_order_release);
  jobs_.notify_all();
  for (std::thread& th : threads_) th.join();
  threads_.clear();
}

void TenantLanes::fork() {
  remaining_.store(static_cast<std::uint32_t>(n_slots_), std::memory_order_relaxed);
  tick_.fetch_add(1, std::memory_order_release);
  jobs_.fetch_add(1, std::memory_order_release);
  jobs_.notify_all();
}

bool TenantLanes::claim(Slot& s, std::uint32_t t, bool emit) {
  std::uint32_t prev = t - 1;
  if (!s.tick.compare_exchange_strong(prev, t, std::memory_order_acq_rel)) return false;
  if (emit) {
    try {
      s.tenant->emit();
    } catch (...) {
      s.error = std::current_exception();
    }
  }
  if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) remaining_.notify_one();
  return true;
}

void TenantLanes::wait_done() { await_zero(remaining_); }

void TenantLanes::join() {
  // Lanes claim their slots heaviest first, so the lightest are the ones
  // most likely still unclaimed.
  const std::uint32_t t = tick_.load(std::memory_order_relaxed);
  for (std::size_t i = n_slots_; i-- > 0;) claim(slots_[i], t, /*emit=*/true);
  wait_done();
  for (std::size_t i = 0; i < n_slots_; ++i)
    if (slots_[i].error) std::rethrow_exception(std::exchange(slots_[i].error, nullptr));
}

std::uint32_t TenantLanes::drain_region(std::size_t self) {
  std::uint32_t ran = 0;
  for (std::size_t k = 0; k < members_; ++k) {
    std::atomic<std::uint64_t>& run = runs_[(self + k) % members_].word;
    for (;;) {
      // Look before taking: a lane woken by a tick must not bump the run of
      // a region that is already done.
      std::uint64_t w = run.load(std::memory_order_relaxed);
      if (static_cast<std::uint32_t>(w) >= (w >> 32)) break;
      w = run.fetch_add(1, std::memory_order_acq_rel);
      const auto chunk = static_cast<std::uint32_t>(w);
      if (chunk >= (w >> 32)) break;
      // Holding a chunk keeps the region, and so its body, alive.
      region_fn_(region_body_, chunk);
      ++ran;
    }
  }
  return ran;
}

void TenantLanes::run(std::size_t chunks, ChunkFn fn, const void* body) {
  if (chunks == 0) return;
  region_fn_ = fn;
  region_body_ = body;
  region_left_.store(static_cast<std::uint32_t>(chunks), std::memory_order_relaxed);
  for (std::size_t i = 0; i < members_; ++i) {
    const std::uint64_t begin = chunks * i / members_, end = chunks * (i + 1) / members_;
    runs_[i].word.store(end << 32 | begin, std::memory_order_release);
  }
  jobs_.fetch_add(1, std::memory_order_release);
  jobs_.notify_all();
  const std::uint32_t mine = drain_region(0);
  if (region_left_.fetch_sub(mine, std::memory_order_acq_rel) != mine) await_zero(region_left_);
}

void TenantLanes::lane_main(std::size_t self, const std::vector<Slot*>& slots) {
  for (std::uint32_t job = 0;;) {
    job = await_change(jobs_, job);
    if (stop_.load(std::memory_order_relaxed)) return;
    const std::uint32_t t = tick_.load(std::memory_order_acquire);
    for (Slot* s : slots)
      if (s->tick.load(std::memory_order_relaxed) != t) claim(*s, t, /*emit=*/true);
    const std::uint32_t ran = drain_region(self);
    if (ran > 0 && region_left_.fetch_sub(ran, std::memory_order_acq_rel) == ran)
      region_left_.notify_one();
  }
}

}  // namespace mtat

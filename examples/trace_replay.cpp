// Bring-your-own-workload: record a tenant's access trace, rebuild it as a
// profile-driven BE tenant, and verify the replica presents the same picture
// to the tiering stack as the original.
//
// The same flow works for external traces: convert any (page, r/w) sample
// stream — e.g. a PEBS capture of a production application — into the trace
// format (workloads/trace/trace_io.h) and it becomes a first-class tenant.
//
//   ./trace_replay
#include <cstdio>

#include "common/rng.h"
#include "workloads/be/be_workload.h"
#include "workloads/kv/hash_store.h"
#include "workloads/trace/trace_io.h"

using namespace mtat;

int main() {
  const std::string path = "/tmp/mtat_example.trace";

  // --- 1. Record: run a real KV workload and capture its access stream. ----
  std::uint64_t footprint = 0;
  {
    const TieredMemory::Config mc = TieredMemory::Config::two_tier(1, 1 << 17);
    TieredMemory mem(mc);
    HashStore::Config hc;
    hc.n_records = 20'000;
    AddressSpace space(mem, 0, HashStore::required_bytes(hc), kTierOnly(kFastestTier + 1),
                       /*sample_period=*/4);
    TraceRecorder recorder(space);
    space.set_observer(&recorder);
    HashStore store(space, hc);
    Rng rng(2024);
    // Skewed requests so the trace has structure worth preserving.
    ScrambledZipfianGenerator zipf(hc.n_records, 0.99);
    for (int i = 0; i < 30'000; ++i) store.get(zipf(rng));
    footprint = space.num_pages();
    const auto samples = recorder.take();
    write_trace(path, footprint, samples);
    std::printf("recorded %zu sampled accesses over %llu pages -> %s\n", samples.size(),
                (unsigned long long)footprint, path.c_str());
  }

  // --- 2. Replay: the trace becomes a tenant on a fresh platform. ----------
  const Trace trace = read_trace(path);
  BEConfig cfg;
  cfg.name = "traced-kv";
  cfg.description = "replayed from " + path;
  cfg.rss = pages_to_bytes(trace.footprint_pages);
  cfg.cpu_ns_per_iter = 50.0;
  cfg.cores = 4;
  cfg.profile = BEProfile::of(profile_from_trace(trace, /*accesses_per_iteration=*/20.0));

  const TieredMemory::Config mc = TieredMemory::Config::two_tier(
      trace.footprint_pages / 4,  // room for a quarter of it
      trace.footprint_pages * 2);
  TieredMemory mem(mc);
  BEWorkload replica(mem, 0, cfg, kTierOnly(kFastestTier + 1), nullptr, 7);

  // --- 3. The replica's FMem sensitivity reflects the recorded skew. -------
  std::printf("\n%12s %16s\n", "FMem pages", "replayed rate");
  for (double frac : {0.0, 0.1, 0.25, 0.5, 1.0}) {
    const auto pages = static_cast<std::uint64_t>(frac * trace.footprint_pages);
    std::printf("%12llu %16.3e\n", (unsigned long long)pages, replica.rate_at_pages(pages));
  }
  const double gain10 =
      replica.rate_at_pages(trace.footprint_pages / 10) / replica.rate_at_pages(0);
  std::printf("\nzipf skew preserved: the hottest 10%% of pages buys a %.2fx speedup\n",
              gain10);
  std::printf("(a uniform trace would get ~%.2fx from the same allocation)\n",
              1.0 / (0.9 + 0.1 * 73.0 / 202.0));
  return gain10 > 1.3 ? 0 : 1;
}

// MEMTIS-HP: the MEMTIS baseline with its page-size determination modeled —
// the part of MEMTIS (SOSP'23) the plain MemtisPolicy descopes.
//
// MEMTIS manages memory at huge-page granularity where that pays and splits
// huge pages whose accesses concentrate in a small subrange. Modeled here at
// the policy layer over 4 KiB frames: 2 MiB-aligned *blocks* (512 frames)
// are scored by aggregate access count and by utilization (how many distinct
// frames were sampled). A hot, well-utilized block is migrated wholesale —
// the TLB/metadata benefit of huge pages translated into our simulator's
// terms as bulk placement of the whole range. A hot but skewed block is
// "split": only its individually hot frames move, via the regular
// page-granular path. Workload-blind like its parent.
#pragma once

#include <memory>
#include <vector>

#include "policy/policy.h"
#include "telemetry/page_hotness.h"

namespace mtat {

class MemtisHpPolicy : public TieringPolicy {
 public:
  static constexpr std::uint64_t kBlockPages = 512;  // 2 MiB of 4 KiB frames

  struct Options {
    /// A block is huge-page-managed when at least this fraction of its
    /// frames saw samples in the window (MEMTIS's util threshold).
    double util_threshold = 0.5;
    /// Blocks promoted wholesale per interval (bulk moves are expensive).
    std::size_t max_block_promotions_per_interval = 8;
    /// Page-granular exchange batch per tick (the split/base path).
    std::size_t max_exchanges_per_tick = 2048;
    int cooling_period_intervals = 2;
    int min_bin_gap = 1;
  };

  explicit MemtisHpPolicy(const PolicyContext& ctx);
  MemtisHpPolicy(const PolicyContext& ctx, Options opt);

  std::string name() const override { return "memtis_hp"; }
  void on_tick(SimTime now, Duration dt) override;
  void on_interval(SimTime now, Duration interval, Duration lc_p99) override;
  void persist(StateArchive& ar) override;

  /// Number of whole-block promotions performed so far (for tests).
  std::uint64_t block_promotions() const { return block_promotions_; }
  const PageHotness& histogram() const { return hist_; }

 private:
  struct Block {
    std::uint32_t count = 0;     ///< sampled accesses this window
    std::uint16_t distinct = 0;  ///< distinct frames sampled this window

    template <class Ar>
    void persist(Ar& ar) {
      ar(count, distinct);
    }
  };

  void on_sample(PageId p);
  void promote_block(std::uint64_t block_index);

  PolicyContext ctx_;
  Options opt_;
  PageHotness hist_;
  std::vector<Block> blocks_;          // indexed by PageId / kBlockPages
  std::vector<std::uint8_t> seen_;     // per-page "sampled this window" bit
  std::vector<std::uint64_t> pending_blocks_;  // hot-huge blocks to bulk-move
  int intervals_since_cooling_ = 0;
  std::uint64_t block_promotions_ = 0;
  // Scratch for the per-tick histogram pulls (capacity persists across ticks).
  std::vector<PageId> hot_;
  std::vector<PageId> victims_;
};

}  // namespace mtat

// vTMM-like baseline (Sha et al., EuroSys'23) — an *extension* beyond the
// paper's comparison set, implemented because the paper's related-work
// section singles it out as the closest per-tenant allocation scheme: each
// tenant's "hot set size" is the number of its pages whose sampled access
// count exceeds a base threshold, and FMem is divided proportionally to hot
// set sizes. Like MTAT it partitions per tenant; unlike MTAT it is still
// purely frequency-driven, so an LC tenant with a bursty-but-sparse access
// pattern measures a tiny hot set and gets a tiny partition — the same §2.2
// failure mode, now at partition granularity.
//
// Enforcement reuses MTAT's PartitionEnforcer (quota plans + within-partition
// hotness refinement), so the comparison isolates the *sizing* policy.
#pragma once

#include <memory>

#include "core/ppe.h"
#include "policy/policy.h"

namespace mtat {

class VtmmPolicy : public TieringPolicy {
 public:
  struct Options {
    /// A page is "hot" when its histogram bin is at least this (bin b means
    /// an aged count of at least 2^(b-1)).
    int hot_threshold_bin = 2;
    /// Floor on any tenant's share, so a fully idle tenant is not starved to
    /// literally zero (vTMM keeps a base allocation per VM).
    double min_share = 0.02;
  };

  explicit VtmmPolicy(const PolicyContext& ctx);
  VtmmPolicy(const PolicyContext& ctx, Options opt);

  std::string name() const override { return "vtmm"; }
  void on_tick(SimTime now, Duration dt) override;
  void on_interval(SimTime now, Duration interval, Duration lc_p99) override;
  void persist(StateArchive& ar) override;

  PartitionEnforcer& enforcer() { return *ppe_; }

 private:
  PolicyContext ctx_;
  Options opt_;
  std::unique_ptr<PartitionEnforcer> ppe_;
};

}  // namespace mtat

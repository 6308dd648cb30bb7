// Static pinning baselines (paper §5 "Comparisons").
//
// FMEM_ALL and SMEM_ALL are allocation-time configurations: the simulation
// places the LC workload's pages FMem-first (with BE confined to SMem) or
// SMem-only (with BE free to take FMem) respectively, and the policy then
// performs no runtime migration at all. The class exists so the experiment
// harness can treat every comparison point uniformly.
#pragma once

#include "policy/policy.h"

namespace mtat {

class StaticPolicy : public TieringPolicy {
 public:
  enum class Kind { kFMemAll, kSMemAll };

  explicit StaticPolicy(Kind kind) : kind_(kind) {}

  std::string name() const override { return kind_ == Kind::kFMemAll ? "fmem_all" : "smem_all"; }
  void on_tick(SimTime, Duration) override {}
  void on_interval(SimTime, Duration, Duration) override {}
  void persist(StateArchive&) override {}  // stateless

  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

}  // namespace mtat

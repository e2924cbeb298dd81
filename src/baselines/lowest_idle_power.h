// Lowest Idle Power fit — picks the feasible server with the smallest P_idle
// (ties toward lower id). A "static energy label" heuristic: it knows which
// hardware is efficient but is blind to the temporal structure (existing busy
// segments, transition costs). Separates how much of MinIncrementalEnergy's
// win comes from hardware choice vs temporal consolidation.

#pragma once

#include "core/allocator.h"

namespace esva {

class LowestIdlePowerAllocator final : public Allocator {
 public:
  struct Options {
    VmOrder order = VmOrder::ByStartTime;
  };

  LowestIdlePowerAllocator() = default;
  explicit LowestIdlePowerAllocator(VmOrder order) { options_.order = order; }
  explicit LowestIdlePowerAllocator(Options options) : options_(options) {}

  std::string name() const override { return "lowest-idle-power"; }

  Allocation allocate(const ProblemInstance& problem, Rng& rng) override;

  std::unique_ptr<PlacementPolicy> make_policy() const override;

 private:
  Options options_;
};

}  // namespace esva

// Best Fit (CPU) — classical bin-packing baseline adapted to the interval
// setting: allocate each VM to the feasible server whose peak CPU headroom
// over the VM's interval would be tightest after placement. Energy-oblivious;
// included to separate "consolidation effect" from "energy-awareness effect"
// in the ablation benches.

#pragma once

#include "core/allocator.h"

namespace esva {

class BestFitCpuAllocator final : public Allocator {
 public:
  struct Options {
    VmOrder order = VmOrder::ByStartTime;
  };

  BestFitCpuAllocator() = default;
  explicit BestFitCpuAllocator(VmOrder order) { options_.order = order; }
  explicit BestFitCpuAllocator(Options options) : options_(options) {}

  std::string name() const override { return "best-fit-cpu"; }

  Allocation allocate(const ProblemInstance& problem, Rng& rng) override;

  std::unique_ptr<PlacementPolicy> make_policy() const override;

 private:
  Options options_;
};

}  // namespace esva

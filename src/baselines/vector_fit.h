// Dot-product (vector bin packing) baseline — extension beyond the paper.
//
// Multi-dimensional packing heuristics pick the server whose remaining
// capacity vector best *aligns* with the request's demand vector (Panigrahy
// et al., "Heuristics for Vector Bin Packing"). This keeps CPU and memory
// consumption balanced so neither dimension strands the other — exactly the
// "unevenness" failure mode the paper attributes to FFPS in Fig. 3. It is
// energy-oblivious, so comparing it against MinIncrementalEnergy separates
// "pack well" from "pack where energy is cheap".

#pragma once

#include "core/allocator.h"

namespace esva {

class DotProductFitAllocator final : public Allocator {
 public:
  struct Options {
    VmOrder order = VmOrder::ByStartTime;
  };

  DotProductFitAllocator() = default;
  explicit DotProductFitAllocator(VmOrder order) { options_.order = order; }
  explicit DotProductFitAllocator(Options options) : options_(options) {}

  std::string name() const override { return "dot-product-fit"; }

  /// Deterministic: maximizes the cosine between the VM's demand and the
  /// server's peak remaining capacity over the VM's interval; ties toward
  /// the lower server id.
  Allocation allocate(const ProblemInstance& problem, Rng& rng) override;

  std::unique_ptr<PlacementPolicy> make_policy() const override;

 private:
  Options options_;
};

}  // namespace esva

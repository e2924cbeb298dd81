#include "core/min_incremental.h"

#include "core/candidate_scan.h"
#include "core/streaming.h"

namespace esva {

namespace {

/// The Eq. 17 incremental energy — the score *is* the quantity the paper
/// minimizes, which is also what the trace reports.
struct MinIncrementalScore {
  CostOptions cost;
  double operator()(const ServerTimeline& timeline, const VmSpec& vm) const {
    return incremental_cost(timeline, vm, cost);
  }
};

}  // namespace

// The whole decision loop — traced and untraced — lives in ScanPolicy
// (core/candidate_scan.h), so the traced twin can never drift from the fast
// path (the equivalence test in tests/test_obs_trace.cpp pins them together)
// and the batch and streaming drivers share one code path
// (tests/test_streaming.cpp).
std::unique_ptr<PlacementPolicy> MinIncrementalAllocator::make_policy() const {
  return make_scan_policy(name(), /*score_is_energy_delta=*/true,
                          MinIncrementalScore{options_.cost}, obs_);
}

}  // namespace esva

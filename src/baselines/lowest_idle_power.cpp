#include "baselines/lowest_idle_power.h"

#include "cluster/timeline.h"
#include "core/candidate_scan.h"
#include "core/streaming.h"
#include "util/types.h"

namespace esva {

namespace {

struct LowestIdlePowerScore {
  double operator()(const ServerTimeline& timeline,
                    const VmSpec& /*vm*/) const {
    return timeline.spec().p_idle;
  }
};

}  // namespace

std::unique_ptr<PlacementPolicy> LowestIdlePowerAllocator::make_policy()
    const {
  return make_scan_policy(name(), /*score_is_energy_delta=*/false,
                          LowestIdlePowerScore{}, obs_);
}

}  // namespace esva

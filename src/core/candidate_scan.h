// The candidate-scan engine: every exhaustive allocator in the library spends
// its time in the same loop — for each VM, probe all n server timelines
// (feasibility + a per-server score) and keep the arg-min. This header owns
// that loop once, as one serial path in two steps:
//
//   * the SoA envelope pass (core/envelope_store.h) — before each arg-min,
//     one contiguous sweep over packed per-server envelope rows classifies
//     every server quick-accept / quick-reject / needs-tree with
//     ServerTimeline::quick_fit's exact comparisons (autovectorized; the
//     fleet's triage never chases a timeline pointer per server). Only
//     needs-tree servers fall through to segment-tree can_fit. Verdicts are
//     bit-for-bit quick_fit's (tests/test_envelope_scan.cpp fuzzes them), so
//     the pass decides exactly what can_fit would.
//
//   * scan_range() — the arg-min itself: strictly smaller scores win, ties
//     keep the lowest server index.
//
// ScanPolicy is the per-request decision loop shared by min-incremental and
// the scan-based baselines, as a streaming PlacementPolicy
// (core/streaming.h): tracing (decision records need check_fit diagnostics,
// so the traced scan skips the envelope pass), scoring, and probe
// accounting. Batch allocate() runs the same policy through run_batch
// ("sort by start time, feed the stream"), and the null-sink path adds no
// work to the scan (bench/perf_allocators).

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/timeline.h"
#include "core/allocator.h"
#include "core/cost_model.h"
#include "core/envelope_store.h"
#include "core/streaming.h"
#include "obs/trace.h"
#include "util/types.h"

namespace esva {

/// "No feasible candidate" marker for ScanOutcome::best.
inline constexpr std::size_t kNoCandidate = static_cast<std::size_t>(-1);

/// Result of one arg-min scan over [lo, hi) candidates.
struct ScanOutcome {
  std::size_t best = kNoCandidate;
  double best_score = kInf;
  std::int64_t feasible = 0;
  std::int64_t rejected = 0;
};

/// The one arg-min loop every allocator variant funnels through (the
/// untraced and the traced scan are both instantiations). `eval(i)` returns
/// the candidate's score, or nullopt when infeasible; strictly smaller
/// scores win, ties keep the lowest index. Exceptions from `eval` propagate.
template <typename Eval>
ScanOutcome scan_range(std::size_t lo, std::size_t hi, const Eval& eval) {
  ScanOutcome out;
  for (std::size_t i = lo; i < hi; ++i) {
    const std::optional<double> score = eval(i);
    if (!score) {
      ++out.rejected;
      continue;
    }
    ++out.feasible;
    if (*score < out.best_score) {
      out.best_score = *score;
      out.best = i;
    }
  }
  return out;
}

/// Probe accounting for one allocate() run.
struct ScanTotals {
  std::int64_t feasible = 0;
  std::int64_t rejected = 0;
};

/// The per-request decision loop shared by every scan-based allocator, as a
/// streaming policy: arg-min-scans the fleet with `score` (lower is better;
/// ties to the lowest server index). Batch allocate() and the streaming
/// replay both run exactly this code (core/streaming.h run_batch /
/// PlacementEngine), so they cannot diverge.
///
/// While tracing, every server is decided by check_fit (rejection
/// diagnostics) instead of the envelope verdict, through the same
/// scan_range arg-min, so traced and untraced runs cannot diverge
/// (tests/test_obs_trace.cpp). `score_is_energy_delta` tells the tracer
/// whether `score` already *is* the Eq. 17 incremental energy; otherwise
/// candidates are priced separately for the trace, as the baselines always
/// did.
template <typename ScoreFn>
class ScanPolicy final : public PlacementPolicy {
 public:
  ScanPolicy(std::string name, bool score_is_energy_delta, ScoreFn score,
             const ObsContext& obs)
      : name_(std::move(name)),
        score_is_energy_delta_(score_is_energy_delta),
        score_(std::move(score)),
        obs_(obs) {}

  std::string name() const override { return name_; }

  PlacementDecision place_one(const ClusterState& cluster, const VmSpec& vm,
                              Rng& /*rng*/) override {
    const std::vector<ServerTimeline>& timelines = cluster.timelines();
    const std::size_t n = timelines.size();
    PlacementDecision result;
    if (obs_.tracing()) {
      DecisionBuilder decision(obs_, name_, vm.id);
      const ScanOutcome out =
          scan_range(0, n, [&](std::size_t i) -> std::optional<double> {
            const FitCheck fit = timelines[i].check_fit(vm);
            if (!fit.ok) {
              decision.add_rejected(static_cast<ServerId>(i), fit);
              return std::nullopt;
            }
            const double s = score_(timelines[i], vm);
            decision.add_feasible(static_cast<ServerId>(i),
                                  score_is_energy_delta_
                                      ? s
                                      : incremental_cost(timelines[i], vm));
            return s;
          });
      totals_.feasible += out.feasible;
      totals_.rejected += out.rejected;
      if (out.best == kNoCandidate) {
        decision.commit(kNoServer);
        return result;  // reported as unallocated
      }
      result.server = static_cast<ServerId>(out.best);
      result.has_delta = true;
      result.delta = score_is_energy_delta_
                         ? out.best_score
                         : incremental_cost(timelines[out.best], vm);
      decision.commit(result.server, result.delta);
      return result;
    }

    // Envelope pass: one contiguous sweep classifies the whole fleet before
    // the arg-min touches any timeline; only servers it leaves kUnknown
    // reach the segment trees.
    verdicts_.resize(n);
    cluster.envelopes().classify(EnvelopeStore::probe_of(vm),
                                 verdicts_.data());
    const ScanOutcome out =
        scan_range(0, n, [&](std::size_t i) -> std::optional<double> {
          switch (static_cast<QuickFit>(verdicts_[i])) {
            case QuickFit::kFits: return score_(timelines[i], vm);
            case QuickFit::kCannotFit: return std::nullopt;
            case QuickFit::kUnknown: break;
          }
          if (!timelines[i].can_fit(vm)) return std::nullopt;
          return score_(timelines[i], vm);
        });
    totals_.feasible += out.feasible;
    totals_.rejected += out.rejected;
    if (out.best == kNoCandidate) return result;  // reported as unallocated
    result.server = static_cast<ServerId>(out.best);
    if (score_is_energy_delta_) {
      result.has_delta = true;
      result.delta = out.best_score;
    }
    return result;
  }

  void finish(std::size_t requests, std::size_t unallocated) override {
    record_allocation_metrics(obs_.metrics, name_, requests, totals_.feasible,
                              totals_.rejected, unallocated);
  }

 private:
  std::string name_;
  bool score_is_energy_delta_;
  ScoreFn score_;
  ObsContext obs_;
  ScanTotals totals_;
  /// Per-scan QuickFit verdict bytes from the envelope pass, indexed by
  /// server.
  std::vector<std::uint8_t> verdicts_;
};

/// Deduces the ScoreFn type; the scan-based allocators' make_policy() and
/// allocate() both construct their policy through this.
template <typename ScoreFn>
std::unique_ptr<ScanPolicy<ScoreFn>> make_scan_policy(
    std::string name, bool score_is_energy_delta, ScoreFn score,
    const ObsContext& obs) {
  return std::make_unique<ScanPolicy<ScoreFn>>(
      std::move(name), score_is_energy_delta, std::move(score), obs);
}

}  // namespace esva

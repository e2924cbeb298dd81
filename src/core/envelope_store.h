// Packed per-server window envelopes: the data-oriented twin of
// ServerTimeline::quick_fit.
//
// The PR 5 kernel made feasibility triage O(1) per server, but each probe
// still chases a ServerTimeline pointer — the spec, the window bounds, and
// the two tree roots live on three-plus scattered cache lines per server, so
// a fleet scan is bound by misses, not arithmetic. EnvelopeStore keeps the
// eight scalars that triage actually reads in structure-of-arrays form
// (peak/floor usage and capacity per resource dimension, plus the window
// bounds), contiguous and ascending by server index. classify() sweeps the
// block once per scanned VM and emits a QuickFit verdict byte per server;
// the loop is branch-free over straight arrays, so the compiler
// autovectorizes it 8-16 servers wide (4 doubles per AVX2 lane x the unroll).
//
// The contract that makes the pass transparent: classify() evaluates the
// *same floating-point comparisons* quick_fit evaluates, on copies of the
// same doubles —
//
//     window:        vm.start >= base       && vm.end <= horizon
//     quick-accept:  peak  + demand <= capacity + kEps   (both dimensions)
//     quick-reject:  floor + demand >  capacity + kEps   (stable VMs only,
//                                                         per failing dim)
//
// IEEE comparisons are deterministic functions of their operands, so verdicts
// are bit-for-bit quick_fit's at every server — spare capacity is represented
// as the (capacity, peak) pair rather than a precomputed difference precisely
// so no comparison is algebraically rearranged. The store is owned by
// ClusterState (core/streaming.h), which refreshes the mutated row — O(1),
// five loads off the timeline — at every place, GC rebuild, fault stub, and
// recovery; the row carries the timeline's epoch so coherence is checkable.
// tests/test_envelope_scan.cpp fuzzes verdict equality and row coherence
// (debug_validate) across randomized engine lifecycles.
//
// Row kinds, by the timeline behind them (cluster/timeline.h):
//   fixed window   base..horizon, peak/floor over the whole window (batch);
//   open window    base..ServerTimeline::kOpenHorizon, so the window test
//                  always passes for a VM starting at or after the base, and
//                  peak >= 0 >= floor (the zero usage past the span is part
//                  of the window). A server hosting nothing holds no trees:
//                  its row (peak = floor = 0) alone decides every stable
//                  probe — kFits, or kCannotFit when the demand exceeds the
//                  empty server's capacity;
//   health stub    the empty window frontier..frontier-1: kCannotFit always.
// Horizon growth changes no row: open rows need no upper bound.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/timeline.h"
#include "cluster/vm.h"
#include "util/types.h"

namespace esva {

class EnvelopeStore {
 public:
  /// The per-VM constants of one classify() sweep, hoisted out of the
  /// per-server loop.
  struct Probe {
    double cpu = 0.0;      ///< peak CPU demand
    double mem = 0.0;      ///< peak memory demand
    Time start = 0;
    Time end = 0;
    bool profiled = false; ///< time-varying demand: quick-reject is unsound
  };

  static Probe probe_of(const VmSpec& vm) {
    return Probe{vm.demand.cpu, vm.demand.mem, vm.start, vm.end,
                 vm.has_profile()};
  }

  /// Rebuilds every row from `timelines` (the ClusterState constructor),
  /// row i mirroring timelines[i].
  void reset(const std::vector<ServerTimeline>& timelines);

  /// Re-reads row `i` from its timeline: peak/floor envelope (O(1) tree
  /// roots), capacity, window bounds, epoch. Called after every mutation of
  /// the mirrored timeline.
  void refresh(std::size_t i, const ServerTimeline& timeline);

  std::size_t size() const { return count_; }

  /// Writes quick_fit(vm)'s verdict for every server into verdicts[0..size),
  /// as QuickFit bytes (cast back with static_cast<QuickFit>). One
  /// contiguous, branch-free sweep over the SoA block; verdict order is
  /// ascending by server index, so the scan's strict-< arg-min reduction is
  /// untouched. Bit-for-bit equal to calling timelines[i].quick_fit(vm) for
  /// each i (header comment; fuzzed in tests/test_envelope_scan.cpp).
  void classify(const Probe& probe, std::uint8_t* verdicts) const;

  /// The epoch stored with row `i` — equals timelines[i].epoch() whenever
  /// the store is coherent.
  std::uint64_t epoch(std::size_t i) const { return epoch_[i]; }

  /// Coherence check for tests: every stored field equals the value
  /// recomputed from scratch off the timeline (exact ==, including the O(1)
  /// segment-tree roots max_all/min_all and the epoch). Never called on hot
  /// paths — it is O(servers) and asserts stay live in release builds here.
  bool debug_validate(const std::vector<ServerTimeline>& timelines) const;

 private:
  std::size_t count_ = 0;
  // One row per server, split by field. Kept as parallel arrays (not an
  // array of structs) so classify() streams each field sequentially.
  std::vector<double> peak_cpu_;
  std::vector<double> peak_mem_;
  std::vector<double> floor_cpu_;
  std::vector<double> floor_mem_;
  std::vector<double> cap_cpu_;
  std::vector<double> cap_mem_;
  std::vector<Time> base_;
  std::vector<Time> horizon_;
  std::vector<std::uint64_t> epoch_;
};

}  // namespace esva

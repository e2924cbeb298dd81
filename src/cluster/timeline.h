// Per-server occupancy over the planning horizon.
//
// A ServerTimeline answers the two questions every allocator in this library
// asks, both in O(log T):
//   * feasibility — "does VM j fit on this server throughout [t^s, t^e]?"
//     (paper §III: "a subset of servers having sufficient spare resources
//     throughout its time duration"), via range-add/range-max segment trees
//     per resource dimension;
//   * structure — "what are the busy segments?" (Fig. 1), via a merged
//     IntervalSet, which the cost model turns into energy (Eq. 17).
//
// Most feasibility probes never reach the trees: the trees' O(1) window-wide
// usage envelope (max_all / min_all) lets quick_fit() accept a candidate
// whose demand fits under the window peak, or reject one whose demand
// exceeds the spare capacity of even the emptiest unit, before any O(log T)
// descent (docs/PERFORMANCE.md, "Batched feasibility kernel").
//
// A window is either fixed (base..horizon, trees built over all of it at
// construction: the batch allocators, branch-and-bound) or open-ended
// (base..kOpenHorizon, the rolling ClusterState of core/streaming.h). An
// open timeline's trees are span-sized: they cover base..span_end() only,
// start empty (a timeline hosting nothing holds no trees at all), and double
// when a placement reaches past the span. Units past the span read as zero
// usage in every query, exactly what a tree over the whole window would hold
// there (docs/PERFORMANCE.md, "Span-sized timelines and the retirement
// calendar").
//
// Placements can be undone in LIFO order, which is what the exact
// branch-and-bound solver uses for backtracking.

#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "cluster/server_spec.h"
#include "cluster/vm.h"
#include "util/interval_set.h"
#include "util/segment_tree.h"
#include "util/types.h"

namespace esva {

/// Why a feasibility probe rejected a VM (observability vocabulary; the trace
/// layer serializes these verbatim).
enum class FitReject {
  None,     ///< the VM fits
  Horizon,  ///< the VM's interval falls outside the base..horizon window
  Cpu,      ///< insufficient spare CPU at some time unit
  Mem,      ///< insufficient spare memory at some time unit
};

std::string to_string(FitReject reject);

/// Diagnosed feasibility result: can_fit() plus the first violated dimension
/// and the earliest violating time unit (0 when ok or horizon-rejected).
struct FitCheck {
  bool ok = false;
  FitReject reject = FitReject::None;
  Time at = 0;
};

/// O(1) feasibility triage verdict from the window-wide usage envelope.
enum class QuickFit : std::uint8_t {
  kFits,       ///< peak + demand fits: can_fit(vm) is certainly true
  kCannotFit,  ///< demand exceeds spare everywhere (or window): certainly false
  kUnknown,    ///< undecided; a tree query is required
};

class ServerTimeline {
 public:
  /// The horizon of an open-ended window: no VM ends past it, and the trees
  /// grow on demand instead of covering the window.
  static constexpr Time kOpenHorizon = std::numeric_limits<Time>::max();

  /// A timeline for `spec` over times 1..horizon (inclusive).
  ServerTimeline(const ServerSpec& spec, Time horizon);

  /// A timeline over the window base..horizon (inclusive; empty when
  /// horizon == base - 1). A fixed window builds its resource trees over
  /// the whole window, so memory is O(horizon - base). With horizon ==
  /// kOpenHorizon the window is open-ended and the trees are span-sized
  /// (header comment); the rolling-horizon ClusterState (core/streaming.h)
  /// rebuilds such timelines with an advanced base to keep state
  /// proportional to what the server holds. VMs starting before `base` do
  /// not fit.
  ServerTimeline(const ServerSpec& spec, Time base, Time horizon);

  const ServerSpec& spec() const { return spec_; }
  Time base() const { return base_; }
  Time horizon() const { return horizon_; }
  bool open() const { return horizon_ == kOpenHorizon; }

  /// Materialized resource-tree size in time units: the whole window for a
  /// fixed one, the span for an open one (0 while it hosts nothing).
  std::size_t resident_units() const { return cpu_.size(); }

  /// Last time unit the trees cover (base - 1 when they cover none).
  Time span_end() const { return base_ + static_cast<Time>(cpu_.size()) - 1; }

  /// Mutation counter: bumped by every place() and undo(), never reused.
  /// Anything derived from this timeline's state (feasibility verdicts,
  /// incremental-cost deltas) stays valid exactly while the epoch is
  /// unchanged — the coherence witness EnvelopeStore rows carry
  /// (core/envelope_store.h).
  std::uint64_t epoch() const { return epoch_; }

  /// Raises the epoch to at least `floor`. A rebuilt timeline (rolling
  /// garbage collection) starts from the epoch of the timeline it replaces,
  /// so a row stored against the old timeline can never validate against
  /// the fresh one.
  void inherit_epoch(std::uint64_t floor);

  /// Inserts a raw busy interval without reserving resources. Used when
  /// rebuilding a garbage-collected timeline: a unit sentinel at the latest
  /// retired busy endpoint preserves every future structure-cost delta
  /// (core/streaming.h explains why). May lie before `base`; the busy
  /// structure is time-indexed, not window-indexed.
  void seed_busy(Time lo, Time hi);

  /// True iff the VM's demand fits within spare capacity at every time unit
  /// of its interval. VMs whose interval falls outside the base..horizon
  /// window do not fit.
  bool can_fit(const VmSpec& vm) const;

  /// O(1) triage: decides can_fit(vm) from the window-wide usage envelope
  /// when possible, without touching the trees. kFits / kCannotFit agree
  /// with can_fit exactly (same floating-point comparisons); kUnknown means
  /// the caller must fall back to can_fit. EnvelopeStore::classify is its
  /// packed twin; this per-timeline form is the oracle it is fuzzed
  /// against.
  QuickFit quick_fit(const VmSpec& vm) const;

  /// can_fit with a diagnosis: which dimension failed first, and where.
  /// Agrees with can_fit on `ok` for every VM (tested); rejection is
  /// localized by tree descent (RangeAddMaxTree::first_above) in O(log^2 T)
  /// rather than a per-unit scan.
  FitCheck check_fit(const VmSpec& vm) const;

  /// Everything needed to undo a placement.
  struct PlaceRecord {
    VmId vm = 0;
    IntervalSet::InsertDelta busy_delta;
  };

  /// Reserves the VM's resources and extends the busy structure, first
  /// doubling an open timeline's span until it covers vm.end. The caller
  /// must have checked can_fit (asserted in debug builds).
  PlaceRecord place(const VmSpec& vm);

  /// Reverts a placement. Records must be undone in reverse order of their
  /// place() calls (LIFO); this is asserted where cheap.
  void undo(const PlaceRecord& record, const VmSpec& vm);

  /// Merged busy segments (Fig. 1's busy-segments, in increasing order).
  const IntervalSet& busy() const { return busy_; }

  /// VM ids currently placed here, in placement order.
  const std::vector<VmId>& vms() const { return vms_; }

  /// Peak CPU / memory usage over an inclusive time range (requires
  /// base <= lo <= hi <= horizon; units past the span read 0).
  double max_cpu_usage(Time lo, Time hi) const;
  double max_mem_usage(Time lo, Time hi) const;

  /// Usage at a single time unit.
  double cpu_usage_at(Time t) const { return max_cpu_usage(t, t); }
  double mem_usage_at(Time t) const { return max_mem_usage(t, t); }

  /// Window-wide usage envelope, O(1): the peak and floor of usage across
  /// the whole base..horizon window (0 for an empty window). An open window
  /// always extends past its span, so its envelope includes the zero usage
  /// there: peak >= 0 and floor <= 0, and a timeline hosting nothing has
  /// peak == floor == 0.
  double peak_cpu_usage() const { return peak_of(cpu_); }
  double peak_mem_usage() const { return peak_of(mem_); }
  double floor_cpu_usage() const { return floor_of(cpu_); }
  double floor_mem_usage() const { return floor_of(mem_); }

  /// Total busy time units.
  Time busy_time() const { return busy_.total_length(); }

 private:
  std::size_t index_of(Time t) const {
    return static_cast<std::size_t>(t - base_);
  }
  double peak_of(const RangeAddMaxTree& tree) const {
    return open() ? std::max(tree.max_all(), 0.0) : tree.max_all();
  }
  double floor_of(const RangeAddMaxTree& tree) const {
    return open() ? std::min(tree.min_all(), 0.0) : tree.min_all();
  }
  /// Doubles an open timeline's trees until they cover `end`.
  void reserve_span(Time end);

  ServerSpec spec_;
  Time base_;
  Time horizon_;
  RangeAddMaxTree cpu_;
  RangeAddMaxTree mem_;
  IntervalSet busy_;
  std::vector<VmId> vms_;
  std::uint64_t epoch_ = 0;
};

/// Builds one timeline per server over the instance horizon.
std::vector<ServerTimeline> make_timelines(
    const std::vector<ServerSpec>& servers, Time horizon);

}  // namespace esva

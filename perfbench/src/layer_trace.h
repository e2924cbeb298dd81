// Layer tracing from outside the program: an in-memory span log and two
// forwarding PlacementPolicy decorators. Nothing inside esva is
// instrumented; every span is taken around a call into a layer's public
// function (PlacementEngine::advance_to / submit, PlacementPolicy::place_one)
// from the benchmark's own code.
//
//   StampPolicy   — untraced runs: one timestamp per place_one entry, so the
//                   batch workload gets per-VM latencies through run_batch.
//   TracingPolicy — traced runs: a scan span per place_one, a horizon span
//                   (submit entry -> place_one entry) on requests where
//                   cluster().horizon() grew, and a commit span (place_one
//                   exit -> submit return).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/streaming.h"

namespace esvabench {

enum Layer : std::uint8_t {
  kRoot,     ///< one request (stream) or the whole run_batch call (batch)
  kBuild,    ///< engine construction up to the first place_one (batch)
  kAdvance,  ///< PlacementEngine::advance_to
  kSubmit,   ///< PlacementEngine::submit
  kHorizon,  ///< submit entry -> place_one entry when the horizon grew
  kScan,     ///< PlacementPolicy::place_one
  kCommit,   ///< place_one exit -> submit return (batch: -> next entry)
  kLayerCount,
};

struct Span {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;
  Layer layer = kRoot;
};

/// Spans kept in memory for the whole run and summarized once at the end.
class SpanLog {
 public:
  explicit SpanLog(std::size_t reserve) { spans_.reserve(reserve); }

  int add(Layer layer, std::int64_t start, std::int64_t end, int parent) {
    spans_.push_back({start, end, parent, layer});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int span, std::int64_t end) { spans_[span].end = end; }

  struct LayerStats {
    std::vector<double> durations_us;  ///< span durations
    double self_ms = 0.0;              ///< sum of durations minus children
  };

  /// Per-layer span durations and self time (span time minus the part its
  /// child spans cover; children never overlap one another).
  std::vector<LayerStats> summarize() const {
    std::vector<double> child_ns(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child_ns[s.parent] += double(s.end - s.start);
    std::vector<LayerStats> out(kLayerCount);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double dur = double(s.end - s.start);
      out[s.layer].durations_us.push_back(dur / 1e3);
      out[s.layer].self_ms += (dur - child_ns[i]) / 1e6;
    }
    return out;
  }

 private:
  std::vector<Span> spans_;
};

/// Forwards to `inner`, stamping each place_one entry.
class StampPolicy final : public esva::PlacementPolicy {
 public:
  explicit StampPolicy(esva::PlacementPolicy& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  void begin(const esva::ClusterState& c, esva::Rng& rng) override {
    inner_.begin(c, rng);
  }
  esva::PlacementDecision place_one(const esva::ClusterState& c,
                                    const esva::VmSpec& vm,
                                    esva::Rng& rng) override {
    entries.push_back(now_ns());
    return inner_.place_one(c, vm, rng);
  }
  void finish(std::size_t requests, std::size_t unallocated) override {
    inner_.finish(requests, unallocated);
  }

  std::vector<std::int64_t> entries;

 private:
  esva::PlacementPolicy& inner_;
};

/// Forwards to `inner`, recording scan / horizon / commit spans into `log`.
/// Stream harness: call begin_request() right before submit and
/// end_request() right after it. Batch harness (run_batch drives submit
/// itself): call begin_batch() before run_batch and end_batch() after it.
class TracingPolicy final : public esva::PlacementPolicy {
 public:
  TracingPolicy(esva::PlacementPolicy& inner, SpanLog& log)
      : inner_(inner), log_(log) {}
  std::string name() const override { return inner_.name(); }
  void begin(const esva::ClusterState& c, esva::Rng& rng) override {
    horizon_ = c.horizon();
    inner_.begin(c, rng);
  }
  void finish(std::size_t requests, std::size_t unallocated) override {
    inner_.finish(requests, unallocated);
  }

  void begin_request(int submit_span, std::int64_t submit_entry) {
    parent_ = submit_span;
    submit_entry_ = submit_entry;
    scan_exit_ = -1;
  }
  void end_request(std::int64_t submit_exit) {
    if (scan_exit_ >= 0) log_.add(kCommit, scan_exit_, submit_exit, parent_);
  }
  void begin_batch(int root_span, std::int64_t start) {
    parent_ = root_span;
    batch_ = true;
    scan_exit_ = -1;
    build_start_ = start;
  }
  void end_batch(std::int64_t end) {
    if (scan_exit_ >= 0) log_.add(kCommit, scan_exit_, end, parent_);
  }

  esva::PlacementDecision place_one(const esva::ClusterState& c,
                                    const esva::VmSpec& vm,
                                    esva::Rng& rng) override {
    const std::int64_t entry = now_ns();
    if (batch_) {
      if (scan_exit_ >= 0)
        log_.add(kCommit, scan_exit_, entry, parent_);
      else
        log_.add(kBuild, build_start_, entry, parent_);
    } else if (c.horizon() != horizon_) {
      log_.add(kHorizon, submit_entry_, entry, parent_);
      ++extensions;
    }
    horizon_ = c.horizon();
    esva::PlacementDecision d = inner_.place_one(c, vm, rng);
    scan_exit_ = now_ns();
    log_.add(kScan, entry, scan_exit_, parent_);
    return d;
  }

  std::int64_t extensions = 0;

 private:
  esva::PlacementPolicy& inner_;
  SpanLog& log_;
  esva::Time horizon_ = 0;
  int parent_ = -1;
  bool batch_ = false;
  std::int64_t submit_entry_ = 0;
  std::int64_t scan_exit_ = -1;
  std::int64_t build_start_ = 0;
};

}  // namespace esvabench

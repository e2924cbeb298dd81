// The benchmark's workloads. Each entry point runs one repetition in the
// current process and prints one JSON result line on stdout; run.py spawns
// the repetitions and aggregates them (perfbench/README.md).

#pragma once

#include <string>

#include "bench_util.h"
#include "core/streaming.h"
#include "layer_trace.h"
#include "obs/metrics.h"

namespace esvabench {

/// The serve daemon's engine configuration (serve/daemon.cpp): grow-on-demand
/// horizon, auto-advance GC, energy accounting, tolerated late arrivals.
inline esva::EngineOptions daemon_engine_options() {
  esva::EngineOptions options;
  options.initial_horizon = 0;
  options.auto_advance = true;
  options.account_energy = true;
  options.tolerate_late_arrivals = true;
  return options;
}

int batch_fig2(const Args& args);
int stream_fleet(const Args& args);
int serve_mixed(const Args& args);

/// Writes the core.* per-layer metrics summarized from a traced run's span
/// log. `feasible_share` comes from the allocator.<name>.feasible_candidates
/// and .rejections counters the policy flushes into `metrics` at finish().
void emit_core_layers(JsonOut& out, const SpanLog& log,
                      const esva::MetricsRegistry& metrics,
                      const std::string& allocator, std::int64_t extensions,
                      std::int64_t retired);

}  // namespace esvabench

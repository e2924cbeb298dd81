#include "sim/replay.h"

#include <algorithm>
#include <array>
#include <chrono>

#include "stats/summary.h"

namespace esva {

ReplayReport replay_stream(ArrivalStream& arrivals,
                           const std::vector<ServerSpec>& servers,
                           PlacementPolicy& policy, Rng& rng,
                           const ReplayOptions& options) {
  EngineOptions engine_options;
  engine_options.initial_horizon = 0;  // grow on demand with the stream
  engine_options.auto_advance = options.rolling_gc;
  engine_options.account_energy = true;
  engine_options.cost = options.cost;
  // A straggler in a real arrival feed must not abort the whole replay; the
  // engine classifies it (kLateArrival) and the report counts it.
  engine_options.tolerate_late_arrivals = true;
  engine_options.faults = options.faults;
  engine_options.retry = options.retry;
  engine_options.migration_cost_per_gib = options.migration_cost_per_gib;
  engine_options.obs = options.obs;
  engine_options.timeseries = options.timeseries;
  engine_options.ledger = options.ledger;
  PlacementEngine engine(servers, policy, rng, engine_options);

  ReplayReport report;
  using Clock = std::chrono::steady_clock;
  while (auto vm = arrivals.next()) {
    const auto t0 = Clock::now();
    const PlacementDecision decision = engine.submit(*vm);
    const auto t1 = Clock::now();
    report.submit_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());

    ++report.requests;
    const auto id = static_cast<std::size_t>(vm->id);
    if (report.assignment.size() <= id) {
      report.assignment.resize(id + 1, kNoServer);
    }
    report.assignment[id] = decision.server;
    if (decision.reject == PlacementReject::kDeferred) ++report.deferred;
    report.peak_active_vms =
        std::max(report.peak_active_vms, engine.cluster().active_vms());
  }
  // Give every queued retry its remaining attempts and fire any faults
  // scheduled past the last arrival, so the counters below are final.
  engine.finish_stream();
  // End-of-stream fleet state, regardless of the sampler's cadence.
  engine.sample_now();
  policy.finish(report.requests,
                report.requests - static_cast<std::size_t>(engine.placed()));

  // Evacuations and retry placements change hosting after submission; the
  // resolution log replays those changes over the submit-time assignment.
  for (const Resolution& r : engine.resolutions()) {
    const auto id = static_cast<std::size_t>(r.vm);
    if (report.assignment.size() <= id)
      report.assignment.resize(id + 1, kNoServer);
    report.assignment[id] = r.server;
  }

  for (double ms : report.submit_ms) report.submit_total_ms += ms;
  if (!report.submit_ms.empty()) {
    report.latency.mean_ms =
        report.submit_total_ms / static_cast<double>(report.submit_ms.size());
    const std::array<double, 3> ps = {0.50, 0.99, 1.0};
    const std::vector<double> qs = quantiles(report.submit_ms, ps);
    report.latency.p50_ms = qs[0];
    report.latency.p99_ms = qs[1];
    report.latency.max_ms = qs[2];
    // Feed the *same* measured samples into the log-bucket histogram, so the
    // live-path percentiles are deterministically comparable to the exact
    // sort-based ones above (no second clock reading involved).
    LatencyHistogram hist;
    for (double ms : report.submit_ms) hist.record(ms);
    report.latency_hist = hist.snapshot();
    report.latency.hist_p50_ms = report.latency_hist.p50();
    report.latency.hist_p90_ms = report.latency_hist.p90();
    report.latency.hist_p99_ms = report.latency_hist.p99();
  }
  if (report.submit_total_ms > 0.0) {
    report.requests_per_sec = static_cast<double>(report.requests) /
                              (report.submit_total_ms / 1000.0);
  }

  report.placed = static_cast<std::size_t>(engine.placed());
  report.rejected = report.requests - report.placed;
  report.faults = engine.fault_stats();
  report.total_energy = engine.total_energy();
  report.peak_resident_time_units = engine.peak_resident_time_units();
  report.final_resident_time_units = engine.cluster().resident_time_units();
  report.final_frontier = engine.cluster().frontier();
  return report;
}

}  // namespace esva

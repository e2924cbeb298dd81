// batch-fig2: the paper's own experiment (Fig. 2 family) as `esva allocate`
// users pay for it — the first allocation in a fresh process.
//
// The timed call is run_batch over min-incremental's streaming policy, which
// is exactly what MinIncrementalAllocator::allocate runs; going through
// run_batch lets a forwarding policy stamp each VM's place_one entry, so the
// run yields per-VM latencies as well as throughput. The check then runs the
// real Allocator::allocate and requires the identical assignment.

#include <cmath>
#include <cstdio>
#include <iostream>

#include "baselines/registry.h"
#include "bench_util.h"
#include "core/allocation.h"
#include "layer_trace.h"
#include "obs/metrics.h"
#include "reference.h"
#include "sim/engine.h"
#include "workload/scenarios.h"
#include "workloads.h"

namespace esvabench {

namespace {
// fig2@2000: 1000 servers over a ~4000-unit horizon, ~330 MB at peak.
constexpr int kVms = 2000;
}  // namespace

int batch_fig2(const Args& args) {
  const std::uint64_t seed = static_cast<std::uint64_t>(args.num("seed", 1));
  const bool traced = args.num("trace", 0) != 0;
  const std::int64_t t0 = args.num("t0-ns", now_ns());

  esva::Rng gen(seed);
  const esva::ProblemInstance problem =
      esva::fig2_scenario(kVms, 2.0).instantiate(gen);
  esva::MetricsRegistry metrics;
  esva::AllocatorPtr allocator = esva::make_allocator("min-incremental");
  if (traced) allocator->set_observability(esva::ObsContext{nullptr, &metrics});
  std::unique_ptr<esva::PlacementPolicy> policy = allocator->make_policy();
  esva::Rng rng(seed);

  JsonOut out;
  const std::int64_t setup_end = now_ns();
  const double reference_before = reference_ms();
  esva::Allocation alloc;
  std::int64_t first = 0, end = 0;
  if (!traced) {
    StampPolicy stamp(*policy);
    stamp.entries.reserve(problem.num_vms());
    first = now_ns();
    alloc = esva::run_batch(problem, stamp, esva::VmOrder::ByStartTime, rng);
    end = now_ns();
    const std::vector<std::int64_t>& stamps = stamp.entries;
    std::vector<double> lat;
    for (std::size_t j = 0; j < stamps.size(); ++j) {
      const std::int64_t next = j + 1 < stamps.size() ? stamps[j + 1] : end;
      lat.push_back(double(next - stamps[j]) / 1e3);
    }
    out.array("latency_us", lat);
  } else {
    SpanLog log(3 * problem.num_vms() + 4);
    TracingPolicy tracing(*policy, log);
    first = now_ns();
    const int root = log.add(kRoot, first, first, -1);
    tracing.begin_batch(root, first);
    alloc = esva::run_batch(problem, tracing, esva::VmOrder::ByStartTime, rng);
    end = now_ns();
    tracing.end_batch(end);
    log.close(root, end);
    emit_core_layers(out, log, metrics, allocator->name(), 0, 0);
  }
  const double reference_after = reference_ms();
  const double call_s = double(end - first) / 1e9;
  // One segment, as stream-fleet reports them: run.py scales its times by
  // the reference timed around it.
  out.num("host_ref_ms", (reference_before + reference_after) / 2.0);
  out.num("segment_size", double(problem.num_vms()));
  out.array("segment_s", {call_s});
  out.array("segment_ref_ms", {reference_before, reference_after});
  out.num("peak_rss_mb", peak_rss_mb());
  out.num("setup_s", double(setup_end - t0) / 1e9);
  out.num("wall_s", call_s);
  out.num("ops_per_s", double(problem.num_vms()) / call_s);

  // --- correctness: feasibility, two energy evaluators, the allocate path --
  std::string error = esva::validate_allocation(problem, alloc, true);
  const esva::Energy eq17 = esva::evaluate_cost(problem, alloc).total();
  const esva::Energy simulated =
      esva::SimulationEngine(problem, alloc).run().total_energy();
  if (error.empty() &&
      std::fabs(eq17 - simulated) > 1e-6 * std::max(1.0, std::fabs(eq17)))
    error = "Eq. 17 energy " + hexfloat(eq17) +
            " disagrees with the event simulation " + hexfloat(simulated);
  if (error.empty()) {
    esva::Rng again(seed);
    const esva::Allocation reference =
        esva::make_allocator("min-incremental")->allocate(problem, again);
    if (reference.assignment != alloc.assignment)
      error = "run_batch assignment differs from Allocator::allocate";
  }
  out.num("attempted", double(problem.num_vms()));
  out.num("failed", double(alloc.num_unallocated()));
  out.str("digest", digest(alloc.assignment));
  out.str("energy_hex", hexfloat(eq17));
  out.str("error", error);
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace esvabench

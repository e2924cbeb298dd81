// stream-fleet: Poisson arrivals into a 10k-server scaled fleet through a
// PlacementEngine with rolling GC, configured like the serve daemon's engine
// (auto-advance, energy accounting, tolerated late arrivals). Under such an
// arrival process most servers sit empty, so this workload makes fleet-size
// costs visible: the scan over every row sets the median, full-fleet
// ensure_horizon rebuilds and advance_to sweeps set the tail.
//
// One request is advance_to(vm.start) followed by submit(vm), both called
// explicitly so the traced run can split them; the untraced run times the
// same two calls.

#include <cmath>
#include <iostream>

#include "baselines/registry.h"
#include "bench_util.h"
#include "cluster/catalog.h"
#include "cluster/datacenter.h"
#include "core/allocation.h"
#include "layer_trace.h"
#include "reference.h"
#include "sim/replay.h"
#include "workload/arrival_stream.h"
#include "workload/generator.h"
#include "workloads.h"

namespace esvabench {

namespace {

// 2000 requests per instance keep the full-horizon check paths near 2 GB
// while still crossing five horizon extensions; a run pools many instances.
constexpr int kServers = 10000;
constexpr int kRequests = 2000;
constexpr std::size_t kSegment = 500;

/// Checks the stream's outputs: a feasible complete assignment whose Eq. 17
/// evaluation matches the telescoped energy and, with `batch_paths`, the
/// identical assignment and energy from run_batch and the no-GC replay of
/// the same inputs (those two hold full-horizon timelines, ~2 GB here, so
/// the launcher asks for them on one repetition per run).
std::string check(const std::vector<esva::VmSpec>& vms,
                  const std::vector<esva::ServerSpec>& fleet,
                  const std::vector<esva::ServerId>& got, esva::Energy energy,
                  std::uint64_t seed, bool batch_paths) {
  const esva::ProblemInstance problem = esva::make_problem(vms, fleet);
  esva::Allocation stream_alloc;
  stream_alloc.assignment = got;
  const std::string invalid =
      esva::validate_allocation(problem, stream_alloc, true);
  if (!invalid.empty()) return invalid;
  const esva::Energy evaluated =
      esva::evaluate_cost(problem, stream_alloc).total();
  if (std::fabs(evaluated - energy) > 1e-9 * std::max(1.0, evaluated))
    return "telescoped energy " + hexfloat(energy) +
           " disagrees with the Eq. 17 evaluation " + hexfloat(evaluated);
  if (!batch_paths) return "";
  {
    esva::AllocatorPtr allocator = esva::make_allocator("min-incremental");
    std::unique_ptr<esva::PlacementPolicy> policy = allocator->make_policy();
    esva::Rng rng(seed);
    const esva::Allocation batch = esva::run_batch(
        problem, *policy, esva::VmOrder::ByStartTime, rng);
    if (batch.assignment != got)
      return "assignment differs from run_batch on the same inputs";
  }
  esva::AllocatorPtr allocator = esva::make_allocator("min-incremental");
  std::unique_ptr<esva::PlacementPolicy> policy = allocator->make_policy();
  esva::Rng rng(seed);
  esva::VectorArrivalStream arrivals(vms);
  esva::ReplayOptions no_gc;
  no_gc.rolling_gc = false;
  const esva::ReplayReport replay =
      esva::replay_stream(arrivals, fleet, *policy, rng, no_gc);
  if (replay.assignment != got)
    return "assignment differs from the no-GC replay";
  if (replay.total_energy != energy)
    return "energy " + hexfloat(energy) + " differs from the no-GC replay's " +
           hexfloat(replay.total_energy);
  return "";
}

}  // namespace

int stream_fleet(const Args& args) {
  const std::uint64_t seed = static_cast<std::uint64_t>(args.num("seed", 1));
  const bool traced = args.num("trace", 0) != 0;
  const bool batch_paths = args.num("check", 0) != 0;
  const std::int64_t t0 = args.num("t0-ns", now_ns());

  const std::vector<esva::ServerSpec> fleet =
      esva::make_scaled_fleet(kServers, esva::all_server_types(), 1.0);
  esva::WorkloadConfig config;
  config.num_vms = kRequests;
  config.mean_interarrival = 0.5;
  config.mean_duration = 50.0;
  config.vm_types = esva::all_vm_types();
  esva::Rng gen(seed);
  const std::vector<esva::VmSpec> vms = esva::generate_workload(config, gen);
  // Presented in run_batch's (start, end, id) order, so the batch paths the
  // check compares against see the identical request sequence.
  const std::vector<std::size_t> order = esva::order_by_start(vms);

  esva::MetricsRegistry metrics;
  esva::AllocatorPtr allocator = esva::make_allocator("min-incremental");
  if (traced) allocator->set_observability(esva::ObsContext{nullptr, &metrics});
  std::unique_ptr<esva::PlacementPolicy> inner = allocator->make_policy();
  SpanLog log(traced ? 7 * vms.size() : 0);
  TracingPolicy tracing(*inner, log);
  esva::PlacementPolicy& policy =
      traced ? static_cast<esva::PlacementPolicy&>(tracing) : *inner;
  esva::Rng rng(seed);
  esva::PlacementEngine engine(fleet, policy, rng, daemon_engine_options());

  std::vector<esva::ServerId> assignment(vms.size(), esva::kNoServer);
  std::vector<double> lat;
  lat.reserve(vms.size());
  std::int64_t retired = 0;
  // Requests run in segments of kSegment. The host-speed reference is timed
  // before, between and after them, outside every timed request, so each
  // segment's times can be scaled by the host's speed around it.
  const std::int64_t setup_end = now_ns();
  std::vector<double> segment_ref_ms = {reference_ms()};
  std::vector<double> segment_s;
  std::int64_t segment_start = now_ns();
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i > 0 && i % kSegment == 0) {
      segment_s.push_back(double(now_ns() - segment_start) / 1e9);
      segment_ref_ms.push_back(reference_ms());
      segment_start = now_ns();
    }
    const std::size_t j = order[i];
    const esva::VmSpec& vm = vms[j];
    const std::int64_t a = now_ns();
    if (!traced) {
      engine.advance_to(vm.start);
      assignment[j] = engine.submit(vm).server;
      lat.push_back(double(now_ns() - a) / 1e3);
      continue;
    }
    const int root = log.add(kRoot, a, a, -1);
    const std::size_t active = engine.cluster().active_vms();
    const int advance = log.add(kAdvance, a, a, root);
    engine.advance_to(vm.start);
    const std::int64_t b = now_ns();
    log.close(advance, b);
    retired += static_cast<std::int64_t>(active - engine.cluster().active_vms());
    const int submit = log.add(kSubmit, b, b, root);
    tracing.begin_request(submit, b);
    assignment[j] = engine.submit(vm).server;
    const std::int64_t c = now_ns();
    tracing.end_request(c);
    log.close(submit, c);
    log.close(root, c);
    lat.push_back(double(c - a) / 1e3);
  }
  segment_s.push_back(double(now_ns() - segment_start) / 1e9);
  segment_ref_ms.push_back(reference_ms());
  engine.finish_stream();
  for (const esva::Resolution& r : engine.resolutions())
    assignment[r.vm] = r.server;
  std::size_t unallocated = 0;
  for (esva::ServerId s : assignment) unallocated += s == esva::kNoServer;
  policy.finish(vms.size(), unallocated);

  JsonOut out;
  const double wall_s = sum(segment_s);
  out.num("peak_rss_mb", peak_rss_mb());
  out.num("setup_s", double(setup_end - t0) / 1e9);
  out.num("host_ref_ms", sum(segment_ref_ms) / double(segment_ref_ms.size()));
  out.num("wall_s", wall_s);
  out.num("ops_per_s", double(vms.size()) / wall_s);
  out.array("latency_us", lat);
  out.num("segment_size", double(kSegment));
  out.array("segment_s", segment_s);
  out.array("segment_ref_ms", segment_ref_ms);
  if (traced)
    emit_core_layers(out, log, metrics, allocator->name(), tracing.extensions,
                     retired);

  const std::string error = check(vms, fleet, assignment,
                                  engine.total_energy(), seed, batch_paths);
  out.num("attempted", double(vms.size()));
  out.num("failed", double(unallocated));
  out.str("digest", digest(assignment));
  out.str("energy_hex", hexfloat(engine.total_energy()));
  out.str("error", error);
  std::cout << out.str() << std::endl;
  return 0;
}

void emit_core_layers(JsonOut& out, const SpanLog& log,
                      const esva::MetricsRegistry& metrics,
                      const std::string& allocator, std::int64_t extensions,
                      std::int64_t retired) {
  const std::vector<SpanLog::LayerStats> s = log.summarize();
  const std::string prefix = "allocator." + allocator + ".";
  double feasible = 0.0, rejected = 0.0;
  for (const auto& [name, value] : metrics.snapshot().counters) {
    if (name == prefix + "feasible_candidates") feasible = double(value);
    if (name == prefix + "rejections") rejected = double(value);
  }
  const auto& scan = s[kScan];
  out.num("core.scan.calls", double(scan.durations_us.size()));
  out.num("core.scan.busy_ms", scan.self_ms);
  out.num("core.scan.p50_us", percentile(scan.durations_us, 0.50));
  out.num("core.scan.p99_us", percentile(scan.durations_us, 0.99));
  out.num("core.scan.feasible_share",
          feasible + rejected > 0 ? feasible / (feasible + rejected) : 0.0);
  const auto& horizon = s[kHorizon];
  out.num("core.horizon.extensions", double(extensions));
  out.num("core.horizon.busy_ms", horizon.self_ms);
  out.num("core.horizon.max_ms", max_of(horizon.durations_us) / 1e3);
  const auto& advance = s[kAdvance];
  out.num("core.advance.calls", double(advance.durations_us.size()));
  out.num("core.advance.busy_ms", advance.self_ms);
  out.num("core.advance.p99_us", percentile(advance.durations_us, 0.99));
  out.num("core.advance.max_ms", max_of(advance.durations_us) / 1e3);
  out.num("core.advance.retired", double(retired));
  out.num("core.commit.busy_ms", s[kCommit].self_ms);
  out.num("core.build.busy_ms", s[kBuild].self_ms);
  const double total_ms = sum(s[kRoot].durations_us) / 1e3;
  const double layers_ms = scan.self_ms + horizon.self_ms + advance.self_ms +
                           s[kCommit].self_ms + s[kBuild].self_ms;
  out.num("core.submit.total_ms", total_ms);
  out.num("core.submit.unattributed_ms", total_ms - layers_ms);
}

}  // namespace esvabench

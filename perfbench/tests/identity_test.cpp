// The benchmark's tracing must not change what it measures: the forwarding
// policies plus the explicit advance_to before each submit leave every
// assignment and the energy total byte-identical to the plain paths.

#include <gtest/gtest.h>

#include "baselines/registry.h"
#include "cluster/catalog.h"
#include "cluster/datacenter.h"
#include "layer_trace.h"
#include "workloads.h"
#include "workload/generator.h"
#include "workload/scenarios.h"

namespace {

using esvabench::SpanLog;
using esvabench::StampPolicy;
using esvabench::TracingPolicy;

struct StreamResult {
  std::vector<esva::ServerId> assignment;
  esva::Energy energy = 0.0;
  std::int64_t extensions = 0;
};

StreamResult run_stream(const std::vector<esva::VmSpec>& vms,
                        const std::vector<esva::ServerSpec>& fleet,
                        bool traced) {
  auto allocator = esva::make_allocator("min-incremental");
  auto inner = allocator->make_policy();
  SpanLog log(8 * vms.size());
  TracingPolicy tracing(*inner, log);
  esva::Rng rng(3);
  esva::PlacementEngine engine(
      fleet, traced ? static_cast<esva::PlacementPolicy&>(tracing) : *inner,
      rng, esvabench::daemon_engine_options());
  StreamResult r;
  for (const esva::VmSpec& vm : vms) {
    if (traced) {
      const int root = log.add(esvabench::kRoot, 0, 0, -1);
      engine.advance_to(vm.start);
      tracing.begin_request(root, esvabench::now_ns());
      r.assignment.push_back(engine.submit(vm).server);
      tracing.end_request(esvabench::now_ns());
    } else {
      r.assignment.push_back(engine.submit(vm).server);
    }
  }
  r.energy = engine.total_energy();
  r.extensions = tracing.extensions;
  return r;
}

TEST(Identity, TracedStreamMatchesPlainStream) {
  for (std::uint64_t seed : {1u, 2u}) {
    esva::WorkloadConfig config;
    config.num_vms = 600;
    config.mean_interarrival = 0.5;
    config.mean_duration = 50.0;
    config.vm_types = esva::all_vm_types();
    esva::Rng gen(seed);
    const auto vms = esva::generate_workload(config, gen);
    const auto fleet =
        esva::make_scaled_fleet(300, esva::all_server_types(), 1.0);
    const StreamResult plain = run_stream(vms, fleet, false);
    const StreamResult traced = run_stream(vms, fleet, true);
    EXPECT_EQ(plain.assignment, traced.assignment) << "seed " << seed;
    EXPECT_EQ(esvabench::hexfloat(plain.energy),
              esvabench::hexfloat(traced.energy))
        << "seed " << seed;
    EXPECT_GT(traced.extensions, 0);
  }
}

TEST(Identity, DecoratedBatchMatchesAllocate) {
  esva::Rng gen(5);
  const esva::ProblemInstance problem =
      esva::fig2_scenario(300, 2.0).instantiate(gen);
  esva::Rng rng(5);
  const esva::Allocation reference =
      esva::make_allocator("min-incremental")->allocate(problem, rng);

  auto allocator = esva::make_allocator("min-incremental");
  auto stamp_inner = allocator->make_policy();
  StampPolicy stamp(*stamp_inner);
  EXPECT_EQ(esva::run_batch(problem, stamp, esva::VmOrder::ByStartTime, rng)
                .assignment,
            reference.assignment);
  EXPECT_EQ(stamp.entries.size(), problem.num_vms());

  auto trace_inner = allocator->make_policy();
  SpanLog log(4 * problem.num_vms());
  TracingPolicy tracing(*trace_inner, log);
  const int root = log.add(esvabench::kRoot, esvabench::now_ns(), 0, -1);
  tracing.begin_batch(root, esvabench::now_ns());
  const esva::Allocation traced =
      esva::run_batch(problem, tracing, esva::VmOrder::ByStartTime, rng);
  tracing.end_batch(esvabench::now_ns());
  log.close(root, esvabench::now_ns());
  EXPECT_EQ(traced.assignment, reference.assignment);
  const auto layers = log.summarize();
  EXPECT_EQ(layers[esvabench::kScan].durations_us.size(), problem.num_vms());
  EXPECT_EQ(layers[esvabench::kBuild].durations_us.size(), 1u);
  EXPECT_EQ(layers[esvabench::kCommit].durations_us.size(), problem.num_vms());
}

TEST(SpanLog, SelfTimeIsSpanTimeMinusChildren) {
  SpanLog log(4);
  const int root = log.add(esvabench::kRoot, 0, 10000, -1);
  const int submit = log.add(esvabench::kSubmit, 1000, 9000, root);
  log.add(esvabench::kScan, 2000, 6000, submit);
  log.add(esvabench::kCommit, 6000, 7000, submit);
  const auto layers = log.summarize();
  EXPECT_DOUBLE_EQ(layers[esvabench::kRoot].self_ms, 0.002);
  EXPECT_DOUBLE_EQ(layers[esvabench::kSubmit].self_ms, 0.003);
  EXPECT_DOUBLE_EQ(layers[esvabench::kScan].self_ms, 0.004);
  EXPECT_DOUBLE_EQ(layers[esvabench::kCommit].self_ms, 0.001);
}

}  // namespace

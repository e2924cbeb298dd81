// Differential harness for the streaming core (core/streaming.h +
// sim/replay.h): replaying a start-time-sorted request stream through a
// PlacementEngine must be *byte-identical* — assignments compared with ==,
// energies with exact EXPECT_EQ — to the batch Allocator::allocate() path,
// for every registered allocator that exposes a streaming policy, with the
// rolling-horizon garbage collection on or off. Also pins the historical
// fixed-window serial loops verbatim as the absolute anchor of run_batch
// (four scan allocators, every VmOrder), the
// advance_to-never-changes-decisions property, the memory bound GC buys (on
// the stream and on run_batch), and the lazy arrival streams against the
// materializing generators.

#include "core/streaming.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "cluster/catalog.h"
#include "cluster/timeline.h"
#include "core/allocation.h"
#include "core/cost_model.h"
#include "ext/register.h"
#include "sim/replay.h"
#include "test_util.h"
#include "util/rng.h"
#include "workload/arrival_stream.h"
#include "workload/diurnal.h"
#include "workload/generator.h"
#include "workload/scenarios.h"

namespace esva {
namespace {

constexpr int kNumVms = 220;
constexpr int kNumServers = 44;

std::vector<ServerSpec> make_fleet(int num_servers) {
  std::vector<ServerSpec> servers;
  const auto& types = all_server_types();
  for (int i = 0; i < num_servers; ++i) {
    const double transition_time = 0.5 + static_cast<double>(i % 3);
    const std::size_t type_index =
        types.size() - 1 - static_cast<std::size_t>(i) % types.size();
    servers.push_back(make_server(types[type_index], i, transition_time));
  }
  return servers;
}

WorkloadConfig workload_config() {
  WorkloadConfig config;
  config.num_vms = kNumVms;
  config.mean_interarrival = 1.5;
  config.mean_duration = 30.0;
  config.vm_types = all_vm_types();
  return config;
}

/// Stable-demand instance (the paper's workload).
ProblemInstance stable_instance(std::uint64_t seed) {
  Rng rng(seed);
  return make_problem(generate_workload(workload_config(), rng),
                      make_fleet(kNumServers));
}

/// Per-time-unit demand profiles (the general R_jt form).
ProblemInstance profiled_instance(std::uint64_t seed) {
  Rng rng(seed);
  return make_problem(
      generate_bursty_workload(workload_config(), /*phases=*/4,
                               /*valley_factor=*/0.45, rng),
      make_fleet(kNumServers));
}

/// Batch reference: the registered allocator's allocate().
Allocation batch_run(const std::string& name, const ProblemInstance& problem) {
  AllocatorPtr allocator = make_allocator(name);
  Rng rng(7);
  return allocator->allocate(problem, rng);
}

struct StreamRun {
  Allocation alloc;
  ReplayReport report;
};

/// Streaming replay of the same instance: problem.vms through a
/// VectorArrivalStream (start-time order, the batch presentation order) into
/// the allocator's streaming policy, with matched seed.
StreamRun stream_run(const std::string& name, const ProblemInstance& problem,
                     bool rolling_gc) {
  AllocatorPtr allocator = make_allocator(name);
  std::unique_ptr<PlacementPolicy> policy = allocator->make_policy();
  EXPECT_NE(policy, nullptr) << name;
  Rng rng(7);
  VectorArrivalStream arrivals(problem.vms);
  ReplayOptions options;
  options.rolling_gc = rolling_gc;
  StreamRun run;
  run.report = replay_stream(arrivals, problem.servers, *policy, rng, options);
  // The replay report is indexed by VmId; Allocation by VM position.
  run.alloc.assignment.assign(problem.num_vms(), kNoServer);
  for (std::size_t j = 0; j < problem.num_vms(); ++j) {
    const auto id = static_cast<std::size_t>(problem.vms[j].id);
    if (id < run.report.assignment.size())
      run.alloc.assignment[j] = run.report.assignment[id];
  }
  return run;
}

// --- batch vs stream, every streamable allocator ---------------------------

TEST(StreamingDifferential, ReplayMatchesBatchForEveryStreamableAllocator) {
  register_extension_allocators();
  std::vector<std::string> streamable;
  for (const bool profiled : {false, true}) {
    const ProblemInstance problem =
        profiled ? profiled_instance(11) : stable_instance(11);
    for (const std::string& name : allocator_names()) {
      if (!make_allocator(name)->make_policy()) continue;  // batch-only ext
      if (!profiled) streamable.push_back(name);
      const Allocation batch = batch_run(name, problem);
      const StreamRun stream = stream_run(name, problem, /*rolling_gc=*/true);
      ASSERT_EQ(batch.assignment, stream.alloc.assignment)
          << name << (profiled ? " (profiled)" : " (stable)");
      // Identical assignments must price identically — exact, not near.
      EXPECT_EQ(evaluate_cost(problem, batch).total(),
                evaluate_cost(problem, stream.alloc).total())
          << name;
    }
  }
  // Every place_one-capable allocator must actually expose a policy; a
  // regression to nullptr would silently skip its differential above.
  for (const char* name :
       {"min-incremental", "ffps", "ffps-reshuffle", "ffps-noshuffle",
        "best-fit-cpu", "dot-product-fit", "random-fit",
        "lowest-idle-power"}) {
    EXPECT_NE(std::find(streamable.begin(), streamable.end(), name),
              streamable.end())
        << name << " lost its streaming policy";
  }
}

// --- absolute anchor: the historical serial loop ---------------------------

/// A per-server score as the historical batch loops computed it; lower wins.
using HistoricalScore =
    std::function<double(const ServerTimeline&, const VmSpec&)>;

/// The pre-streaming batch loop, verbatim: fixed-window timelines over
/// [1, problem.horizon] built up front, a serial scan over all servers per VM
/// in `order`, strict < so ties break to the lowest server id. run_batch's
/// open, span-sized timelines and rolling frontier must reproduce it exactly;
/// it is the only fixed-window oracle run_batch is held to.
Allocation historical_serial_loop(const ProblemInstance& problem,
                                  VmOrder order, const HistoricalScore& score) {
  std::vector<ServerTimeline> timelines;
  timelines.reserve(problem.num_servers());
  for (const ServerSpec& server : problem.servers)
    timelines.emplace_back(server, problem.horizon);
  Allocation alloc;
  alloc.assignment.assign(problem.num_vms(), kNoServer);
  for (const std::size_t j : ordered_indices(problem, order)) {
    const VmSpec& vm = problem.vms[j];
    ServerId best = kNoServer;
    double best_score = 0.0;
    for (std::size_t i = 0; i < timelines.size(); ++i) {
      if (!timelines[i].can_fit(vm)) continue;
      const double s = score(timelines[i], vm);
      if (best == kNoServer || s < best_score) {
        best = static_cast<ServerId>(i);
        best_score = s;
      }
    }
    if (best == kNoServer) continue;
    timelines[static_cast<std::size_t>(best)].place(vm);
    alloc.assignment[j] = best;
  }
  return alloc;
}

/// The historical scores, restated from their definitions rather than
/// shared with the policies under test: Eq. 17 incremental energy, post-
/// placement CPU headroom (Best Fit), negated cosine alignment of demand
/// and remaining capacity (the maximizing loop, as a minimization), and
/// idle power.
HistoricalScore historical_score(const std::string& name) {
  if (name == "min-incremental")
    return [](const ServerTimeline& t, const VmSpec& vm) {
      return incremental_cost(t, vm, CostOptions{});
    };
  if (name == "best-fit-cpu")
    return [](const ServerTimeline& t, const VmSpec& vm) {
      return t.spec().capacity.cpu - t.max_cpu_usage(vm.start, vm.end) -
             vm.demand.cpu;
    };
  if (name == "dot-product-fit")
    return [](const ServerTimeline& t, const VmSpec& vm) {
      const double demand_norm = std::sqrt(vm.demand.cpu * vm.demand.cpu +
                                           vm.demand.mem * vm.demand.mem);
      const double cpu =
          t.spec().capacity.cpu - t.max_cpu_usage(vm.start, vm.end);
      const double mem =
          t.spec().capacity.mem - t.max_mem_usage(vm.start, vm.end);
      const double remaining_norm = std::sqrt(cpu * cpu + mem * mem);
      double alignment = 0.0;
      if (demand_norm > kEps && remaining_norm > kEps)
        alignment = (vm.demand.cpu * cpu + vm.demand.mem * mem) /
                    (demand_norm * remaining_norm);
      return -alignment;
    };
  EXPECT_EQ(name, "lowest-idle-power");
  return [](const ServerTimeline& t, const VmSpec& /*vm*/) {
    return t.spec().p_idle;
  };
}

constexpr VmOrder kAllOrders[] = {VmOrder::ByStartTime, VmOrder::ByArrivalId,
                                  VmOrder::ByDurationDesc, VmOrder::ByCpuDesc};

/// run_batch over the registered allocator's streaming policy.
Allocation run_batch_with(const std::string& name,
                          const ProblemInstance& problem, VmOrder order) {
  const std::unique_ptr<PlacementPolicy> policy =
      make_allocator(name)->make_policy();
  EXPECT_NE(policy, nullptr) << name;
  Rng rng(7);
  return run_batch(problem, *policy, order, rng);
}

TEST(StreamingDifferential, MinIncrementalAnchoredToHistoricalSerialLoop) {
  for (std::uint64_t seed : {7u, 19u}) {
    for (const bool profiled : {false, true}) {
      const ProblemInstance problem =
          profiled ? profiled_instance(seed) : stable_instance(seed);
      for (const char* name : {"min-incremental", "best-fit-cpu",
                               "dot-product-fit", "lowest-idle-power"}) {
        for (const VmOrder order : kAllOrders) {
          const Allocation anchor =
              historical_serial_loop(problem, order, historical_score(name));
          EXPECT_GT(problem.num_vms() - anchor.num_unallocated(), 0u);
          ASSERT_EQ(anchor.assignment,
                    run_batch_with(name, problem, order).assignment)
              << name << " drifted from the historical loop, order="
              << to_string(order) << " seed=" << seed
              << (profiled ? " (profiled)" : " (stable)");
        }
      }
      const Allocation anchor = historical_serial_loop(
          problem, VmOrder::ByStartTime, historical_score("min-incremental"));
      const Allocation batch = batch_run("min-incremental", problem);
      ASSERT_EQ(anchor.assignment, batch.assignment)
          << "allocate() drifted from the historical loop, seed=" << seed;
      const StreamRun stream =
          stream_run("min-incremental", problem, /*rolling_gc=*/true);
      ASSERT_EQ(anchor.assignment, stream.alloc.assignment)
          << "stream drifted from the historical loop, seed=" << seed;
    }
  }
}

// --- run_batch on open timelines -------------------------------------------

// Open timelines have no upper bound, so run_batch itself leaves a VM
// outside [1, problem.horizon] unallocated, as a fixed window's Horizon
// reject did; placed, it would index past the horizon-sized arrays of
// validate_allocation and the evaluators.
TEST(RunBatch, LeavesVmsOutsideTheInstanceHorizonUnallocated) {
  register_extension_allocators();
  ProblemInstance problem = make_problem(
      {testing::vm(0, 1, 10), testing::vm(1, 5, 20), testing::vm(2, 12, 30),
       testing::vm(3, 1, 4)},
      {testing::basic_server(0), testing::basic_server(1)});
  problem.horizon = 20;        // vm 2 ends past it
  problem.vms[3].start = 0;    // vm 3 starts before time 1
  for (const std::string& name : allocator_names()) {
    if (!make_allocator(name)->make_policy()) continue;
    for (const VmOrder order : kAllOrders) {
      const Allocation alloc = run_batch_with(name, problem, order);
      const std::string where = name + " order=" + to_string(order);
      EXPECT_NE(alloc.assignment[0], kNoServer) << where;
      EXPECT_NE(alloc.assignment[1], kNoServer) << where;
      EXPECT_EQ(alloc.assignment[2], kNoServer) << where;
      EXPECT_EQ(alloc.assignment[3], kNoServer) << where;
      EXPECT_EQ(validate_allocation(problem, alloc, /*require_complete=*/false),
                "")
          << where;
    }
  }
}

/// Forwards to a policy and watches the cluster run_batch drives it over:
/// before every decision and at finish, it records the resident tree units
/// and counts servers that hold trees without ever having hosted a VM.
class ResidentWatch final : public PlacementPolicy {
 public:
  explicit ResidentWatch(PlacementPolicy& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }

  void begin(const ClusterState& cluster, Rng& rng) override {
    cluster_ = &cluster;
    hosted.assign(cluster.num_servers(), false);
    inner_.begin(cluster, rng);
  }

  PlacementDecision place_one(const ClusterState& cluster, const VmSpec& vm,
                              Rng& rng) override {
    observe(cluster);
    const PlacementDecision decision = inner_.place_one(cluster, vm, rng);
    if (decision.server != kNoServer)
      hosted[static_cast<std::size_t>(decision.server)] = true;
    return decision;
  }

  void finish(std::size_t requests, std::size_t unallocated) override {
    observe(*cluster_);
    inner_.finish(requests, unallocated);
  }

  std::vector<bool> hosted;
  std::size_t peak_resident = 0;
  std::size_t idle_with_trees = 0;

 private:
  void observe(const ClusterState& cluster) {
    peak_resident = std::max(peak_resident, cluster.resident_time_units());
    for (std::size_t i = 0; i < cluster.num_servers(); ++i)
      if (!hosted[i] && cluster.timelines()[i].resident_units() != 0)
        ++idle_with_trees;
  }

  PlacementPolicy& inner_;
  const ClusterState* cluster_ = nullptr;
};

// A batch run materializes trees only on the servers it places on; in
// start-time order the rolling frontier also keeps their spans at the
// active window, far below the servers x horizon a fixed window builds.
TEST(RunBatch, MaterializesTreesOnlyOnServersItPlacesOn) {
  Rng gen(1);
  const ProblemInstance problem = fig2_scenario(400, 2.0).instantiate(gen);
  const std::size_t fixed_units =
      problem.num_servers() * static_cast<std::size_t>(problem.horizon);
  for (const VmOrder order : kAllOrders) {
    const std::unique_ptr<PlacementPolicy> policy =
        make_allocator("min-incremental")->make_policy();
    ResidentWatch watch(*policy);
    Rng rng(7);
    const Allocation alloc = run_batch(problem, watch, order, rng);
    const std::string where = to_string(order);
    EXPECT_TRUE(alloc.fully_allocated()) << where;
    EXPECT_EQ(watch.idle_with_trees, 0u) << where;
    const auto hosts = static_cast<std::size_t>(
        std::count(watch.hosted.begin(), watch.hosted.end(), true));
    EXPECT_GT(hosts, 0u) << where;
    EXPECT_LT(hosts, problem.num_servers() / 2) << where;
    EXPECT_GT(watch.peak_resident, 0u) << where;
    EXPECT_LT(watch.peak_resident, fixed_units) << where;
    if (order == VmOrder::ByStartTime) {
      EXPECT_LT(watch.peak_resident * 20, fixed_units) << where;
    }
  }
}

// --- advance_to is decision-invariant --------------------------------------

TEST(StreamingProperty, AdvanceToNeverChangesSubsequentDecisions) {
  register_extension_allocators();
  for (const bool profiled : {false, true}) {
    const ProblemInstance problem =
        profiled ? profiled_instance(29) : stable_instance(29);
    for (const std::string& name : allocator_names()) {
      if (!make_allocator(name)->make_policy()) continue;
      const StreamRun with_gc = stream_run(name, problem, /*rolling_gc=*/true);
      const StreamRun no_gc = stream_run(name, problem, /*rolling_gc=*/false);
      ASSERT_EQ(no_gc.alloc.assignment, with_gc.alloc.assignment)
          << name << (profiled ? " (profiled)" : " (stable)");
      // The sentinel rebuild preserves every structure delta bitwise, so the
      // telescoped energies agree exactly.
      EXPECT_EQ(no_gc.report.total_energy, with_gc.report.total_energy)
          << name;
    }
  }
}

TEST(StreamingProperty, TelescopedEnergyMatchesPostHocEvaluation) {
  const ProblemInstance problem = stable_instance(11);
  const StreamRun stream =
      stream_run("min-incremental", problem, /*rolling_gc=*/true);
  const Energy evaluated = evaluate_cost(problem, stream.alloc).total();
  EXPECT_NEAR(stream.report.total_energy, evaluated,
              1e-9 * std::max(1.0, evaluated));
}

// --- the memory bound GC buys ----------------------------------------------

TEST(StreamingProperty, RollingGcBoundsResidentTimelineMemory) {
  const ProblemInstance problem = stable_instance(11);
  const StreamRun with_gc =
      stream_run("min-incremental", problem, /*rolling_gc=*/true);
  const StreamRun no_gc =
      stream_run("min-incremental", problem, /*rolling_gc=*/false);
  // Without GC the resident window only ever grows; with it, retired history
  // is collected, so both the peak and the final footprint shrink.
  EXPECT_LT(with_gc.report.peak_resident_time_units,
            no_gc.report.peak_resident_time_units);
  EXPECT_LT(with_gc.report.final_resident_time_units,
            no_gc.report.final_resident_time_units);
  EXPECT_GT(with_gc.report.final_frontier, 1);
}

// --- advance_to edge cases -------------------------------------------------

/// The O(1) active count against its O(fleet) recount — the check checked
/// builds run inside the cluster, repeated here after every operation.
void expect_recount(const ClusterState& cluster, const char* when) {
  EXPECT_EQ(cluster.active_vms(), cluster.active_vms_scan()) << when;
}


TEST(StreamingProperty, AdvanceBackwardsIsANoOp) {
  ClusterState cluster({testing::basic_server(0)}, /*initial_horizon=*/64);
  cluster.place(0, testing::vm(0, 1, 10));
  cluster.advance_to(20);
  EXPECT_EQ(cluster.frontier(), 20);
  EXPECT_EQ(cluster.active_vms(), 0u);
  const std::size_t resident = cluster.resident_time_units();
  cluster.advance_to(5);   // backwards: must change nothing
  cluster.advance_to(20);  // equal: must change nothing
  EXPECT_EQ(cluster.frontier(), 20);
  EXPECT_EQ(cluster.resident_time_units(), resident);
  EXPECT_EQ(cluster.active_vms(), cluster.active_vms_scan());
}

TEST(StreamingProperty, EqualEndVmsRetireTogether) {
  ClusterState cluster({testing::basic_server(0), testing::basic_server(1)},
                       /*initial_horizon=*/64);
  cluster.place(0, testing::vm(0, 1, 10));
  cluster.place(0, testing::vm(1, 3, 10));
  cluster.place(1, testing::vm(2, 2, 10));
  // A VM is busy through its end unit: at t == end nothing retires yet.
  cluster.advance_to(10);
  EXPECT_EQ(cluster.active_vms(), 3u);
  // One tick later, all equal-end VMs go in the same sweep.
  cluster.advance_to(11);
  EXPECT_EQ(cluster.active_vms(), 0u);
  EXPECT_EQ(cluster.active_vms(), cluster.active_vms_scan());
}

TEST(StreamingProperty, EagerRebuildTinyWindowsPreserveDecisions) {
  // Force a rebuild (and thus the retired-busy sentinel path) on *every*
  // advance_to tick, with single-tick advances: the harshest GC schedule
  // must still leave every decision and the telescoped energy bit-identical
  // to the no-GC run.
  const ProblemInstance problem = stable_instance(17);
  const auto run = [&](bool eager) {
    AllocatorPtr allocator = make_allocator("min-incremental");
    std::unique_ptr<PlacementPolicy> policy = allocator->make_policy();
    EXPECT_NE(policy, nullptr);
    Rng rng(7);
    EngineOptions options;
    options.account_energy = true;
    PlacementEngine engine(problem.servers, *policy, rng, options);
    struct Result {
      std::vector<ServerId> decisions;
      Energy energy = 0.0;
    } result;
    engine.set_eager_rebuild(eager);
    for (const std::size_t j :
         ordered_indices(problem, VmOrder::ByStartTime)) {
      const VmSpec& vm = problem.vms[j];
      if (eager) {
        // Single-tick advances: every step retires at most a sliver and
        // forces a full rebuild with the sentinel.
        for (Time t = engine.cluster().frontier(); t <= vm.start; ++t) {
          engine.advance_to(t);
          expect_recount(engine.cluster(), "advance_to");
        }
      }
      result.decisions.push_back(engine.submit(vm).server);
      expect_recount(engine.cluster(), "submit");
    }
    result.energy = engine.total_energy();
    return result;
  };
  const auto baseline = run(false);
  const auto stressed = run(true);
  ASSERT_EQ(baseline.decisions, stressed.decisions);
  EXPECT_EQ(baseline.energy, stressed.energy);
}

// --- retirement calendar and host index ------------------------------------

TEST(RetirementCalendar, RetiringAnUnknownIdReturnsNoServer) {
  ClusterState cluster({testing::basic_server(0), testing::basic_server(1)},
                       /*initial_horizon=*/0);
  cluster.ensure_horizon(40);
  cluster.place(1, testing::vm(7, 1, 30));
  expect_recount(cluster, "place");
  EXPECT_EQ(cluster.retire_active(99), kNoServer);
  EXPECT_EQ(cluster.active_vms(), 1u);
  expect_recount(cluster, "retire unknown");
  EXPECT_EQ(cluster.retire_active(7), 1);
  EXPECT_EQ(cluster.active_vms(), 0u);
  expect_recount(cluster, "retire");
  EXPECT_EQ(cluster.retire_active(7), kNoServer);  // already gone
  EXPECT_EQ(cluster.active_vms(), 0u);
  expect_recount(cluster, "retire twice");
}

TEST(RetirementCalendar, RetireThenAdvancePastTheEndRetiresOnce) {
  ClusterState cluster({testing::basic_server(0)}, /*initial_horizon=*/0);
  cluster.ensure_horizon(40);
  cluster.place(0, testing::vm(1, 1, 10));
  cluster.place(0, testing::vm(2, 1, 30));
  cluster.advance_to(5);
  expect_recount(cluster, "advance 5");
  ASSERT_EQ(cluster.retire_active(1), 0);
  EXPECT_EQ(cluster.active_vms(), 1u);
  expect_recount(cluster, "retire");
  // vm1's calendar entry is now stale: popping it must neither retire vm2
  // early nor decrement the count a second time.
  cluster.advance_to(20);
  EXPECT_EQ(cluster.active_vms(), 1u);
  expect_recount(cluster, "advance past vm1's end");
  cluster.advance_to(40);
  EXPECT_EQ(cluster.active_vms(), 0u);
  expect_recount(cluster, "advance past vm2's end");
  EXPECT_EQ(cluster.resident_time_units(), 0u);
}

TEST(RetirementCalendar, FailThenAdvanceRetiresTheReplacedVmOnce) {
  ClusterState cluster({testing::basic_server(0), testing::basic_server(1)},
                       /*initial_horizon=*/0);
  cluster.ensure_horizon(40);
  cluster.place(0, testing::vm(1, 1, 10));
  cluster.place(1, testing::vm(2, 1, 20));
  cluster.advance_to(5);
  const std::vector<VmSpec> displaced = cluster.fail_server(0);
  ASSERT_EQ(displaced.size(), 1u);
  EXPECT_EQ(cluster.active_vms(), 1u);
  expect_recount(cluster, "fail");
  // The remainder lands on the survivor under the same id and end; the
  // stale entry from server 0 must not touch it.
  cluster.place(1, clip_to(displaced[0], 5));
  EXPECT_EQ(cluster.active_vms(), 2u);
  expect_recount(cluster, "re-place");
  cluster.advance_to(11);
  EXPECT_EQ(cluster.active_vms(), 1u);
  expect_recount(cluster, "advance past vm1's end");
  EXPECT_EQ(cluster.retire_active(1), kNoServer);
  cluster.advance_to(21);
  EXPECT_EQ(cluster.active_vms(), 0u);
  expect_recount(cluster, "advance past vm2's end");
  EXPECT_EQ(cluster.resident_time_units(), 0u);
}

// At fleet scale, horizon growth touches no server and retirement touches
// only hosts: idle servers' envelope rows keep their epochs, and the tree
// footprint follows what the fleet holds, back to 0 when it holds nothing.
TEST(RetirementCalendar, IdleServersStayUntouchedAtTenThousandServers) {
  constexpr std::size_t kFleet = 10000;
  std::vector<ServerSpec> fleet;
  for (std::size_t i = 0; i < kFleet; ++i)
    fleet.push_back(testing::basic_server(static_cast<ServerId>(i)));
  ClusterState cluster(std::move(fleet), /*initial_horizon=*/0);
  EXPECT_EQ(cluster.resident_time_units(), 0u);
  const std::vector<std::size_t> hosts = {0, 4242, kFleet - 1};
  for (std::size_t k = 0; k < hosts.size(); ++k) {
    const VmSpec vm = testing::vm(static_cast<VmId>(k), 1,
                                  20 + 10 * static_cast<Time>(k));
    cluster.ensure_horizon(vm.end);
    cluster.place(hosts[k], vm);
  }
  std::size_t hosted_units = 0;
  for (const std::size_t i : hosts)
    hosted_units += cluster.timelines()[i].resident_units();
  EXPECT_EQ(cluster.resident_time_units(), hosted_units);

  std::vector<std::uint64_t> epochs(kFleet);
  for (std::size_t r = 0; r < kFleet; ++r)
    epochs[r] = cluster.envelopes().epoch(r);
  for (const Time end : {Time{1000}, Time{100000}, Time{5000000}})
    cluster.ensure_horizon(end);
  EXPECT_GE(cluster.horizon(), 5000000);
  for (std::size_t r = 0; r < kFleet; ++r)
    ASSERT_EQ(cluster.envelopes().epoch(r), epochs[r]) << "row " << r;
  EXPECT_EQ(cluster.resident_time_units(), hosted_units);

  cluster.advance_to(25);  // retires vm0 only
  EXPECT_EQ(cluster.active_vms(), 2u);
  expect_recount(cluster, "advance 25");
  for (std::size_t i = 0; i < kFleet; ++i) {
    if (i != hosts[0]) {
      ASSERT_EQ(cluster.envelopes().epoch(i), epochs[i]) << "row " << i;
    }
  }
  cluster.advance_to(100);
  EXPECT_EQ(cluster.active_vms(), 0u);
  expect_recount(cluster, "advance 100");
  EXPECT_EQ(cluster.resident_time_units(), 0u);
  ASSERT_TRUE(cluster.envelopes().debug_validate(cluster.timelines()));
}

// --- engine contract -------------------------------------------------------

TEST(StreamingEngine, SubmitBehindFrontierThrows) {
  AllocatorPtr allocator = make_allocator("min-incremental");
  std::unique_ptr<PlacementPolicy> policy = allocator->make_policy();
  ASSERT_NE(policy, nullptr);
  Rng rng(7);
  PlacementEngine engine({testing::basic_server(0)}, *policy, rng);
  EXPECT_NE(engine.submit(testing::vm(0, 10, 20)).server, kNoServer);
  engine.advance_to(30);
  // Start 25 < frontier 30: its window may already be collected.
  EXPECT_THROW(engine.submit(testing::vm(1, 25, 40)), std::invalid_argument);
  // At the frontier is fine.
  EXPECT_NE(engine.submit(testing::vm(2, 30, 40)).server, kNoServer);
}

// --- lazy arrival streams == materializing generators ----------------------

void expect_same_vms(const std::vector<VmSpec>& a,
                     const std::vector<VmSpec>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a[j].id, b[j].id);
    EXPECT_EQ(a[j].type_name, b[j].type_name);
    EXPECT_EQ(a[j].demand, b[j].demand);
    EXPECT_EQ(a[j].start, b[j].start);
    EXPECT_EQ(a[j].end, b[j].end);
  }
}

TEST(ArrivalStreams, PoissonStreamMatchesBatchGenerator) {
  const WorkloadConfig config = workload_config();
  Rng batch_rng(21);
  const std::vector<VmSpec> batch = generate_workload(config, batch_rng);
  Rng stream_rng(21);
  PoissonArrivalStream stream(config, stream_rng);
  expect_same_vms(batch, drain(stream));
}

TEST(ArrivalStreams, DiurnalStreamMatchesBatchGenerator) {
  DiurnalConfig config;
  config.num_vms = 150;
  config.vm_types = all_vm_types();
  Rng batch_rng(33);
  const std::vector<VmSpec> batch = generate_diurnal_workload(config, batch_rng);
  Rng stream_rng(33);
  DiurnalArrivalStream stream(config, stream_rng);
  expect_same_vms(batch, drain(stream));
}

TEST(ArrivalStreams, VectorStreamPresentsBatchOrder) {
  // Ids deliberately out of start order; the stream must yield the batch
  // presentation order — (start, end, id) — regardless of input order.
  std::vector<VmSpec> vms = {testing::vm(0, 9, 12), testing::vm(1, 3, 5),
                             testing::vm(2, 3, 4), testing::vm(3, 3, 4)};
  VectorArrivalStream stream(vms);
  const std::vector<VmSpec> drained = drain(stream);
  ASSERT_EQ(drained.size(), 4u);
  EXPECT_EQ(drained[0].id, 2);  // (3,4,2) before (3,4,3)
  EXPECT_EQ(drained[1].id, 3);
  EXPECT_EQ(drained[2].id, 1);  // (3,5,1)
  EXPECT_EQ(drained[3].id, 0);
  EXPECT_EQ(stream.next(), std::nullopt);  // stays exhausted
}

}  // namespace
}  // namespace esva

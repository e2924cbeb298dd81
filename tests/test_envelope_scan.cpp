// Differential fuzz harness for the SoA envelope triage pass
// (core/envelope_store.h): the packed per-server envelope rows must answer
// every probe with *bit-for-bit* ServerTimeline::quick_fit verdicts, stay
// coherent with the timelines through every lifecycle transition (place /
// undo / GC rebuild / fault stub / recovery), and — composed into the
// candidate scan — leave every scan-based allocator's assignment
// byte-identical to the check_fit scan, under faults or not.
//
// Three layers of evidence:
//   1. timeline-level fuzz: random place/undo interleavings on raw
//      ServerTimelines, classify() vs quick_fit() per server per probe, and
//      decided verdicts cross-checked against can_fit(); plus hand-built
//      rows (window bounds, empty open rows, profiled probes, health stubs);
//   2. lifecycle property fuzz: EnvelopeStore::debug_validate() after every
//      ClusterState transition (place, advance_to, ensure_horizon, fail,
//      drain, recover), eager-rebuild on and off, and a mutation of one
//      server refreshing only its own row;
//   3. end-to-end identity: full allocations and chaos replays, envelope scan
//      vs the traced check_fit scan — assignments, energies, and fault
//      counters must match exactly; single decisions checked against a
//      brute-force Eq. 17 arg-min and the kUnknown -> can_fit fallback; plus
//      the scan_range arg-min contract (ties, ranges, exceptions, one probe
//      per server per scan).
//
// ESVA_FUZZ_QUICK=1 (set by ctest in Debug CI; see tests/CMakeLists.txt)
// shrinks iteration counts so sanitizer jobs fit their time budget. The
// properties checked are identical in both modes.

#include "core/envelope_store.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "cluster/catalog.h"
#include "cluster/timeline.h"
#include "core/allocation.h"
#include "core/candidate_scan.h"
#include "core/cost_model.h"
#include "core/fault_plan.h"
#include "core/streaming.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/replay.h"
#include "test_util.h"
#include "util/rng.h"
#include "workload/arrival_stream.h"
#include "workload/generator.h"

namespace esva {
namespace {

/// True when ESVA_FUZZ_QUICK is set to anything non-empty except "0" — the
/// Debug-CI and sanitizer budget (tests/CMakeLists.txt wires it through
/// ctest). The properties checked are identical; only iteration counts and
/// sweep widths shrink.
bool fuzz_quick() {
  const char* env = std::getenv("ESVA_FUZZ_QUICK");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

/// Iteration budget: `full` normally, `quick` under ESVA_FUZZ_QUICK.
int fuzz_iters(int full, int quick) { return fuzz_quick() ? quick : full; }

constexpr int kNumVms = 220;
constexpr int kNumServers = 44;

const std::vector<std::string>& scan_allocators() {
  static const std::vector<std::string> kNames = {
      "min-incremental", "best-fit-cpu", "lowest-idle-power",
      "dot-product-fit"};
  return kNames;
}

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

ProblemInstance stable_instance(std::uint64_t seed) {
  Rng rng(seed);
  return make_problem(generate_workload(workload_config(), rng),
                      make_fleet(kNumServers));
}

ProblemInstance profiled_instance(std::uint64_t seed) {
  Rng rng(seed);
  return make_problem(
      generate_bursty_workload(workload_config(), /*phases=*/4,
                               /*valley_factor=*/0.45, rng),
      make_fleet(kNumServers));
}

/// A random valid probe VM, possibly reaching outside a timeline's window
/// (below an advanced base or past the horizon — the window comparisons are
/// part of the verdict) and possibly profiled (profiled probes disable the
/// floor-based quick-reject; classify must reproduce that exactly).
VmSpec random_probe(Rng& rng, Time horizon) {
  const Time start =
      static_cast<Time>(rng.uniform_int(1, static_cast<std::int64_t>(horizon)));
  const Time end = start + static_cast<Time>(rng.uniform_int(0, 40));
  VmSpec vm = testing::vm(/*id=*/9000, start, end,
                          rng.uniform_double(0.1, 6.0),
                          rng.uniform_double(0.1, 6.0));
  if (rng.bernoulli(0.3)) {
    std::vector<Resources> profile(static_cast<std::size_t>(vm.duration()));
    for (Resources& r : profile)
      r = {rng.uniform_double(0.1, 6.0), rng.uniform_double(0.1, 6.0)};
    vm.set_profile(std::move(profile));
  }
  return vm;
}

// --- layer 1: classify() is quick_fit(), bit for bit ------------------------

// Random place/undo interleavings on raw timelines with a manually refreshed
// store: every probe's classify() verdict equals quick_fit() per server, and
// every *decided* verdict is consistent with the exact can_fit() answer
// (kFits implies can_fit, kCannotFit implies !can_fit) — so the scan's
// segment-tree fallback only ever runs on genuinely undecided servers.
TEST(EnvelopeFuzz, ClassifyMatchesQuickFitUnderRandomInterleavings) {
  const int rounds = fuzz_iters(80, 10);
  const Time horizon = 160;
  Rng rng(20260807);
  for (int round = 0; round < rounds; ++round) {
    std::vector<ServerTimeline> timelines;
    const std::vector<ServerSpec> fleet = make_fleet(6);
    // Stagger window bases so probes exercise the start-below-base reject
    // (the rolling-GC shape) alongside the end-past-horizon one.
    Time base = 1;
    for (const ServerSpec& spec : fleet) {
      timelines.emplace_back(spec, base, horizon);
      base = (base == 1) ? 25 : 1;
    }
    EnvelopeStore store;
    store.reset(timelines);

    // LIFO undo stacks, one per server (the timeline contract).
    struct Placed {
      ServerTimeline::PlaceRecord record;
      VmSpec vm;
    };
    std::vector<std::vector<Placed>> placed(timelines.size());

    const int ops = fuzz_iters(200, 40);
    std::vector<std::uint8_t> verdicts(timelines.size());
    for (int op = 0; op < ops; ++op) {
      const std::size_t i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(timelines.size()) - 1));
      if (rng.bernoulli(0.35) && !placed[i].empty()) {
        timelines[i].undo(placed[i].back().record, placed[i].back().vm);
        placed[i].pop_back();
        store.refresh(i, timelines[i]);
      } else {
        VmSpec candidate = random_probe(rng, horizon);
        if (candidate.start >= 1 && candidate.end <= horizon &&
            timelines[i].can_fit(candidate)) {
          placed[i].push_back({timelines[i].place(candidate), candidate});
          store.refresh(i, timelines[i]);
        }
      }
      ASSERT_TRUE(store.debug_validate(timelines)) << "round " << round;

      // Probe the whole fleet with a handful of random VMs.
      for (int probe = 0; probe < 4; ++probe) {
        const VmSpec vm = random_probe(rng, horizon);
        store.classify(EnvelopeStore::probe_of(vm), verdicts.data());
        for (std::size_t s = 0; s < timelines.size(); ++s) {
          const QuickFit expected = timelines[s].quick_fit(vm);
          ASSERT_EQ(static_cast<QuickFit>(verdicts[s]), expected)
              << "round " << round << " op " << op << " server " << s
              << " vm [" << vm.start << "," << vm.end << "] cpu "
              << vm.demand.cpu << " mem " << vm.demand.mem
              << (vm.has_profile() ? " (profiled)" : "");
          if (expected == QuickFit::kFits) {
            ASSERT_TRUE(timelines[s].can_fit(vm)) << "server " << s;
          }
          if (expected == QuickFit::kCannotFit) {
            ASSERT_FALSE(timelines[s].can_fit(vm)) << "server " << s;
          }
        }
      }
    }
  }
}

// probe_of must mirror the quick_fit inputs exactly: peak demand, inclusive
// window, and the has-profile flag that gates the floor-based reject.
TEST(EnvelopeStoreTest, ProbeOfCarriesPeakDemandWindowAndProfileFlag) {
  VmSpec stable = testing::vm(1, 5, 9, 2.5, 1.25);
  const EnvelopeStore::Probe p = EnvelopeStore::probe_of(stable);
  EXPECT_EQ(p.cpu, 2.5);
  EXPECT_EQ(p.mem, 1.25);
  EXPECT_EQ(p.start, 5);
  EXPECT_EQ(p.end, 9);
  EXPECT_FALSE(p.profiled);

  VmSpec profiled = testing::vm(2, 5, 7, 1.0, 1.0);
  profiled.set_profile({{1.0, 0.5}, {3.0, 1.0}, {2.0, 2.0}});
  const EnvelopeStore::Probe q = EnvelopeStore::probe_of(profiled);
  EXPECT_EQ(q.cpu, 3.0);  // set_profile lifts demand to the peak
  EXPECT_EQ(q.mem, 2.0);
  EXPECT_TRUE(q.profiled);
}

/// classify() over `timelines` for one probe VM.
std::vector<QuickFit> classify_all(const EnvelopeStore& store,
                                   const VmSpec& vm) {
  std::vector<std::uint8_t> bytes(store.size());
  store.classify(EnvelopeStore::probe_of(vm), bytes.data());
  std::vector<QuickFit> verdicts;
  for (const std::uint8_t b : bytes)
    verdicts.push_back(static_cast<QuickFit>(b));
  return verdicts;
}

// An empty fleet is a valid store: nothing to classify, nothing written.
TEST(EnvelopeStoreTest, EmptyFleetClassifiesNothing) {
  const std::vector<ServerTimeline> none;
  EnvelopeStore store;
  store.reset(none);
  EXPECT_EQ(store.size(), 0u);
  std::uint8_t sentinel = 0xAB;
  store.classify(EnvelopeStore::probe_of(testing::vm(1, 1, 5, 1.0, 1.0)),
                 &sentinel);
  EXPECT_EQ(sentinel, 0xAB);
  EXPECT_TRUE(store.debug_validate(none));
}

// A fixed-window row rejects any probe that starts before the window base
// or ends past the horizon, whatever its demand; inside the window an empty
// server accepts.
TEST(EnvelopeStoreTest, FixedWindowRowRejectsProbesOutsideTheWindow) {
  std::vector<ServerTimeline> timelines;
  timelines.emplace_back(testing::basic_server(0), /*base=*/10,
                         /*horizon=*/50);
  EnvelopeStore store;
  store.reset(timelines);
  const auto verdict = [&](Time start, Time end) {
    return classify_all(store, testing::vm(1, start, end, 1.0, 1.0))[0];
  };
  EXPECT_EQ(verdict(5, 20), QuickFit::kCannotFit);   // starts before base
  EXPECT_EQ(verdict(9, 9), QuickFit::kCannotFit);
  EXPECT_EQ(verdict(40, 60), QuickFit::kCannotFit);  // ends past horizon
  EXPECT_EQ(verdict(51, 51), QuickFit::kCannotFit);
  EXPECT_EQ(verdict(10, 50), QuickFit::kFits);       // the whole window
  EXPECT_EQ(verdict(50, 50), QuickFit::kFits);
}

// A server hosting nothing in an open-window cluster holds no trees; its
// row alone decides every stable probe — kFits up to the capacity,
// kCannotFit past it — at any start time, and can_fit agrees.
TEST(EnvelopeStoreTest, EmptyOpenRowDecidesEveryStableProbe) {
  ClusterState cluster({testing::basic_server(0)}, /*initial_horizon=*/0);
  ASSERT_TRUE(cluster.timelines()[0].open());
  ASSERT_EQ(cluster.timelines()[0].resident_units(), 0u);
  for (const Time start : {Time{1}, Time{7}, Time{1000}, Time{1 << 20}}) {
    for (const double cpu : {0.5, 10.0, 10.5}) {
      const VmSpec vm = testing::vm(1, start, start + 30, cpu, 1.0);
      const QuickFit v = classify_all(cluster.envelopes(), vm)[0];
      EXPECT_EQ(v, cpu <= 10.0 ? QuickFit::kFits : QuickFit::kCannotFit)
          << "start " << start << " cpu " << cpu;
      EXPECT_EQ(v == QuickFit::kFits, cluster.timelines()[0].can_fit(vm));
    }
  }
}

// The floor-based quick-reject applies to stable demand only (quick_fit's
// rule, which classify reproduces): a profiled VM with the same peak is
// left kUnknown, and the segment-tree can_fit decides it.
TEST(EnvelopeStoreTest, ProfiledProbeIsNeverFloorRejected) {
  std::vector<ServerTimeline> timelines;
  timelines.emplace_back(testing::basic_server(0), /*horizon=*/20);
  timelines[0].place(testing::vm(1, 1, 20, 8.0, 1.0));  // floor cpu 8
  EnvelopeStore store;
  store.reset(timelines);

  const VmSpec stable = testing::vm(2, 5, 7, 3.0, 1.0);
  EXPECT_EQ(classify_all(store, stable)[0], QuickFit::kCannotFit);
  EXPECT_FALSE(timelines[0].can_fit(stable));

  VmSpec profiled = testing::vm(3, 5, 7, 1.0, 1.0);
  profiled.set_profile({{2.0, 1.0}, {3.0, 1.0}, {2.0, 1.0}});  // peak 3
  EXPECT_EQ(classify_all(store, profiled)[0], QuickFit::kUnknown);
  EXPECT_FALSE(timelines[0].can_fit(profiled));
}

// undo() restores the timeline's state, so a refreshed row answers every
// probe as before the place — but the epoch moved on, so the row stored
// before the place no longer validates.
TEST(EnvelopeStoreTest, UndoRestoresVerdictsButAdvancesTheEpoch) {
  std::vector<ServerTimeline> timelines;
  timelines.emplace_back(testing::basic_server(0), /*horizon=*/60);
  EnvelopeStore store;
  store.reset(timelines);
  const std::vector<VmSpec> probes = {
      testing::vm(10, 1, 60, 6.0, 6.0), testing::vm(11, 20, 30, 9.0, 1.0),
      testing::vm(12, 5, 5, 0.5, 9.5)};
  std::vector<QuickFit> before;
  for (const VmSpec& probe : probes)
    before.push_back(classify_all(store, probe)[0]);
  const std::uint64_t epoch_before = store.epoch(0);

  const VmSpec vm = testing::vm(1, 10, 40, 5.0, 5.0);
  const ServerTimeline::PlaceRecord record = timelines[0].place(vm);
  store.refresh(0, timelines[0]);
  EXPECT_NE(classify_all(store, probes[0])[0], before[0]);

  timelines[0].undo(record, vm);
  EXPECT_FALSE(store.debug_validate(timelines));  // stale until refreshed
  store.refresh(0, timelines[0]);
  EXPECT_TRUE(store.debug_validate(timelines));
  for (std::size_t k = 0; k < probes.size(); ++k)
    EXPECT_EQ(classify_all(store, probes[k])[0], before[k]) << "probe " << k;
  EXPECT_GT(store.epoch(0), epoch_before);
}

// Failed and drained servers hold health stubs: their rows reject every
// probe, however small, until recovery restores a placeable timeline.
TEST(EnvelopeStoreTest, HealthStubRowsRejectEveryProbeUntilRecovery) {
  ClusterState cluster(make_fleet(3), /*initial_horizon=*/0);
  const VmSpec tiny = testing::vm(1, 1, 5, 0.1, 0.1);
  EXPECT_EQ(classify_all(cluster.envelopes(), tiny),
            std::vector<QuickFit>(3, QuickFit::kFits));

  (void)cluster.fail_server(1);
  cluster.drain_server(2);
  EXPECT_EQ(classify_all(cluster.envelopes(), tiny),
            (std::vector<QuickFit>{QuickFit::kFits, QuickFit::kCannotFit,
                                   QuickFit::kCannotFit}));
  EXPECT_FALSE(cluster.timelines()[1].can_fit(tiny));
  EXPECT_FALSE(cluster.timelines()[2].can_fit(tiny));

  cluster.recover_server(1);
  cluster.recover_server(2);
  EXPECT_EQ(classify_all(cluster.envelopes(), tiny),
            std::vector<QuickFit>(3, QuickFit::kFits));
  EXPECT_TRUE(cluster.envelopes().debug_validate(cluster.timelines()));
}

// --- layer 2: envelope/timeline coherence across the lifecycle --------------

// debug_validate after *every* ClusterState transition, with the GC
// amortization both default and eager (eager forces a rebuild — and thus a
// refresh — on every advance tick, the worst case for staleness bugs).
TEST(EnvelopeCoherence, DebugValidateSurvivesRandomLifecycle) {
  const int rounds = fuzz_iters(25, 4);
  for (const bool eager : {false, true}) {
    Rng rng(eager ? 404u : 303u);
    for (int round = 0; round < rounds; ++round) {
      ClusterState cluster(make_fleet(8), /*initial_horizon=*/0);
      cluster.set_eager_rebuild(eager);
      const auto validate = [&](const char* when) {
        ASSERT_TRUE(cluster.envelopes().debug_validate(cluster.timelines()))
            << when << " round " << round << (eager ? " (eager)" : "");
        for (std::size_t i = 0; i < cluster.num_servers(); ++i)
          ASSERT_EQ(cluster.envelopes().epoch(i),
                    cluster.timelines()[i].epoch())
              << when << " server " << i;
      };
      validate("ctor");

      Time frontier = 1;
      const int ops = fuzz_iters(150, 30);
      for (int op = 0; op < ops; ++op) {
        const std::size_t i = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(cluster.num_servers()) - 1));
        switch (rng.uniform_int(0, 5)) {
          case 0: {  // grow the window
            cluster.ensure_horizon(frontier +
                                   static_cast<Time>(rng.uniform_int(1, 300)));
            validate("ensure_horizon");
            break;
          }
          case 1: {  // place a random feasible VM on server i
            if (!cluster.placeable(i)) break;
            VmSpec vm = random_probe(rng, frontier + 60);
            if (vm.start < frontier || vm.end < vm.start) break;
            cluster.ensure_horizon(vm.end);
            validate("ensure_horizon(place)");
            if (cluster.timelines()[i].can_fit(vm)) {
              cluster.place(i, vm);
              validate("place");
            }
            break;
          }
          case 2: {  // advance the frontier (retire + amortized rebuild)
            frontier += static_cast<Time>(rng.uniform_int(1, 40));
            cluster.ensure_horizon(frontier);
            cluster.advance_to(frontier);
            validate("advance_to");
            break;
          }
          case 3: {
            cluster.fail_server(i);  // displaced VMs dropped: store-level test
            validate("fail_server");
            break;
          }
          case 4: {
            if (cluster.health(i) == ServerHealth::kUp) cluster.drain_server(i);
            validate("drain_server");
            break;
          }
          case 5: {
            cluster.recover_server(i);
            validate("recover_server");
            break;
          }
        }
      }
    }
  }
}

// debug_validate must actually discriminate: a stale row (timeline mutated
// behind the store's back) is detected.
TEST(EnvelopeCoherence, DebugValidateDetectsStaleRows) {
  std::vector<ServerTimeline> timelines;
  timelines.emplace_back(testing::basic_server(0), /*horizon=*/50);
  EnvelopeStore store;
  store.reset(timelines);
  ASSERT_TRUE(store.debug_validate(timelines));
  timelines[0].place(testing::vm(1, 5, 10, 2.0, 2.0));  // no refresh
  EXPECT_FALSE(store.debug_validate(timelines));
  store.refresh(0, timelines[0]);
  EXPECT_TRUE(store.debug_validate(timelines));
  // Fleet-size mismatch is a validation failure, not UB.
  timelines.emplace_back(testing::basic_server(1), /*horizon=*/50);
  EXPECT_FALSE(store.debug_validate(timelines));
}

// A mutation of one server refreshes that server's row and no other: place,
// fail, recover and drain each move exactly the touched row's epoch, and
// horizon growth moves none — before or while the fleet hosts a VM.
TEST(EnvelopeIsolation, MutatingOneServerRefreshesOnlyItsRow) {
  ClusterState cluster(make_fleet(16), /*initial_horizon=*/0);
  const std::size_t victim = 5;
  const auto row_epochs = [&] {
    std::vector<std::uint64_t> out;
    for (std::size_t r = 0; r < cluster.num_servers(); ++r)
      out.push_back(cluster.envelopes().epoch(r));
    return out;
  };
  const auto expect_only_victim = [&](const std::vector<std::uint64_t>& before,
                                      const char* when) {
    const std::vector<std::uint64_t> after = row_epochs();
    for (std::size_t r = 0; r < after.size(); ++r) {
      if (r == victim) {
        EXPECT_GT(after[r], before[r]) << when;
      } else {
        EXPECT_EQ(after[r], before[r]) << when << " row " << r;
      }
    }
    EXPECT_TRUE(cluster.envelopes().debug_validate(cluster.timelines()))
        << when;
  };

  std::vector<std::uint64_t> before = row_epochs();
  cluster.ensure_horizon(300);
  EXPECT_EQ(row_epochs(), before) << "ensure_horizon";

  const VmSpec vm = testing::vm(1, 5, 30, 1.0, 1.0);
  ASSERT_TRUE(cluster.timelines()[victim].can_fit(vm));
  cluster.place(victim, vm);
  expect_only_victim(before, "place");

  before = row_epochs();
  cluster.ensure_horizon(5000);
  EXPECT_EQ(row_epochs(), before) << "ensure_horizon while hosting";

  before = row_epochs();
  EXPECT_EQ(cluster.fail_server(victim).size(), 1u);
  expect_only_victim(before, "fail_server");

  before = row_epochs();
  cluster.recover_server(victim);
  expect_only_victim(before, "recover_server");

  before = row_epochs();
  cluster.drain_server(victim);
  expect_only_victim(before, "drain_server");
}

// --- layer 3: end-to-end byte identity, envelope scan vs check_fit scan ---

// The untraced scan decides servers by the envelope verdict (falling back to
// can_fit only on kUnknown); the traced scan decides every server by
// check_fit and never reads a verdict. Both run the same scan_range arg-min,
// so equal assignments mean the triage never changed a decision.
Allocation run_alloc(const std::string& name, const ProblemInstance& problem,
                     bool traced, MetricsRegistry* metrics = nullptr) {
  AllocatorPtr allocator = make_allocator(name);
  MemoryTraceSink sink;
  ObsContext obs;
  if (traced) obs.trace = &sink;
  obs.metrics = metrics;
  allocator->set_observability(obs);
  Rng rng(7);
  return allocator->allocate(problem, rng);
}

TEST(EnvelopeDifferential, EnvelopeScanMatchesCheckFitScan) {
  const int seeds = fuzz_iters(2, 1);
  for (int s = 0; s < seeds; ++s) {
    const std::uint64_t seed = 11u + 18u * static_cast<std::uint64_t>(s);
    for (const bool profiled : {false, true}) {
      const ProblemInstance problem =
          profiled ? profiled_instance(seed) : stable_instance(seed);
      for (const std::string& name : scan_allocators()) {
        const Allocation reference = run_alloc(name, problem, /*traced=*/true);
        const Allocation fast = run_alloc(name, problem, /*traced=*/false);
        ASSERT_EQ(reference.assignment, fast.assignment)
            << name << " seed=" << seed
            << (profiled ? " (profiled)" : " (stable)");
        // Same double bits in, same bits out: energies match exactly.
        EXPECT_EQ(evaluate_cost(problem, reference).total(),
                  evaluate_cost(problem, fast).total())
            << name;
      }
    }
  }
}

ReplayReport replay_chaos(const std::string& name,
                          const ProblemInstance& problem,
                          const FaultPlan& plan, bool traced) {
  AllocatorPtr allocator = make_allocator(name);
  MemoryTraceSink sink;
  ObsContext obs;
  if (traced) obs.trace = &sink;
  allocator->set_observability(obs);
  std::unique_ptr<PlacementPolicy> policy = allocator->make_policy();
  EXPECT_NE(policy, nullptr) << name;
  Rng rng(7);
  VectorArrivalStream arrivals(problem.vms);
  ReplayOptions options;
  options.faults = &plan;
  options.retry.max_attempts = 3;
  return replay_stream(arrivals, problem.servers, *policy, rng, options);
}

// Chaos stream: failures stub timelines, recoveries rebuild them, retries
// interleave extra scans — the envelope rows must track every transition, so
// assignments, energies, and every fault counter match the check_fit scan.
TEST(EnvelopeDifferential, ChaosReplayByteIdentical) {
  const ProblemInstance problem = stable_instance(31);
  ChaosConfig chaos;
  chaos.num_servers = static_cast<std::size_t>(kNumServers);
  chaos.failures = 6;
  chaos.window_lo = 5;
  chaos.window_hi = 200;
  chaos.mean_repair = 40;
  Rng plan_rng(101);
  const FaultPlan plan = random_fault_plan(chaos, plan_rng);
  for (const std::string& name :
       {std::string("min-incremental"), std::string("lowest-idle-power")}) {
    const ReplayReport fast = replay_chaos(name, problem, plan, false);
    const ReplayReport reference = replay_chaos(name, problem, plan, true);
    ASSERT_EQ(fast.assignment, reference.assignment) << name;
    EXPECT_EQ(fast.total_energy, reference.total_energy) << name;
    EXPECT_EQ(fast.placed, reference.placed) << name;
    EXPECT_EQ(fast.rejected, reference.rejected) << name;
    EXPECT_EQ(fast.faults.displaced, reference.faults.displaced) << name;
    EXPECT_EQ(fast.faults.evacuated, reference.faults.evacuated) << name;
    EXPECT_EQ(fast.faults.retries, reference.faults.retries) << name;
    EXPECT_EQ(fast.faults.rejected_final, reference.faults.rejected_final)
        << name;
    EXPECT_EQ(fast.faults.downtime_units, reference.faults.downtime_units)
        << name;
    EXPECT_GT(fast.faults.fault_events, 0) << name;
  }
}

// Every scan probes every server exactly once: feasible + rejected = n per
// VM, on both the envelope and the check_fit path.
TEST(ScanCandidates, ProbeCountersCoverEveryServerPerScan) {
  const ProblemInstance problem = stable_instance(19);
  const std::string prefix = "allocator.min-incremental.";
  for (const bool traced : {false, true}) {
    MetricsRegistry metrics;
    (void)run_alloc("min-incremental", problem, traced, &metrics);
    const std::int64_t feasible =
        metrics.counter(prefix + "feasible_candidates").value();
    const std::int64_t rejected =
        metrics.counter(prefix + "rejections").value();
    EXPECT_GT(feasible, 0);
    EXPECT_GT(rejected, 0);
    EXPECT_EQ(feasible + rejected,
              static_cast<std::int64_t>(problem.num_vms() *
                                        problem.num_servers()))
        << (traced ? "traced" : "untraced");
  }
}

// --- the scan policy, decision by decision ---------------------------------

/// One untraced or traced place_one() of `name`'s policy on `cluster`.
PlacementDecision decide(const std::string& name, const ClusterState& cluster,
                         const VmSpec& vm, bool traced,
                         MetricsRegistry* metrics = nullptr) {
  AllocatorPtr allocator = make_allocator(name);
  MemoryTraceSink sink;
  ObsContext obs;
  if (traced) obs.trace = &sink;
  obs.metrics = metrics;
  allocator->set_observability(obs);
  std::unique_ptr<PlacementPolicy> policy = allocator->make_policy();
  EXPECT_NE(policy, nullptr) << name;
  Rng rng(7);
  policy->begin(cluster, rng);
  const PlacementDecision decision = policy->place_one(cluster, vm, rng);
  policy->finish(1, decision.server == kNoServer ? 1 : 0);
  return decision;
}

// The feasibility checks every scan allocator runs agree with their own
// probe counters: feasible + rejected = VMs x servers, and the envelope scan
// counts exactly what the check_fit scan counts.
TEST(ScanCandidates, EveryScanAllocatorCountsOneProbePerServer) {
  const ProblemInstance problem = stable_instance(23);
  for (const std::string& name : scan_allocators()) {
    const std::string prefix = "allocator." + name + ".";
    std::int64_t counts[2][2] = {};
    for (const bool traced : {false, true}) {
      MetricsRegistry metrics;
      (void)run_alloc(name, problem, traced, &metrics);
      counts[traced][0] =
          metrics.counter(prefix + "feasible_candidates").value();
      counts[traced][1] = metrics.counter(prefix + "rejections").value();
      EXPECT_EQ(counts[traced][0] + counts[traced][1],
                static_cast<std::int64_t>(problem.num_vms() *
                                          problem.num_servers()))
          << name << (traced ? " traced" : " untraced");
    }
    EXPECT_GT(counts[0][0], 0) << name;
    EXPECT_EQ(counts[0][0], counts[1][0]) << name;
    EXPECT_EQ(counts[0][1], counts[1][1]) << name;
  }
}

// A server the envelope pass leaves undecided (kUnknown) is settled by the
// segment-tree can_fit, not rejected: here it is the only server that can
// take the VM, so every scan allocator must pick it.
TEST(ScanPolicyTest, UndecidedServersFallBackToTheTreeCheck) {
  ClusterState cluster({testing::basic_server(0),
                        testing::server(1, 4.0, 4.0, 100.0, 200.0)},
                       /*initial_horizon=*/40);
  cluster.place(0, testing::vm(1, 1, 10, 8.0, 8.0));
  const VmSpec vm = testing::vm(2, 20, 30, 5.0, 5.0);
  ASSERT_EQ(classify_all(cluster.envelopes(), vm),
            (std::vector<QuickFit>{QuickFit::kUnknown, QuickFit::kCannotFit}));
  ASSERT_TRUE(cluster.timelines()[0].can_fit(vm));
  for (const std::string& name : scan_allocators()) {
    for (const bool traced : {false, true}) {
      EXPECT_EQ(decide(name, cluster, vm, traced).server, ServerId{0})
          << name << (traced ? " traced" : " untraced");
    }
  }
}

// A VM no server can host is reported unallocated on both paths, after
// exactly one rejected probe per server.
TEST(ScanPolicyTest, OversizedVmIsUnallocatedOnBothPaths) {
  ClusterState cluster(make_fleet(6), /*initial_horizon=*/0);
  const VmSpec vm = testing::vm(1, 1, 10, 1e6, 1.0);
  for (const std::string& name : scan_allocators()) {
    for (const bool traced : {false, true}) {
      MetricsRegistry metrics;
      const PlacementDecision d = decide(name, cluster, vm, traced, &metrics);
      EXPECT_EQ(d.server, kNoServer) << name;
      EXPECT_FALSE(d.has_delta) << name;
      const std::string prefix = "allocator." + name + ".";
      EXPECT_EQ(metrics.counter(prefix + "rejections").value(), 6) << name;
      EXPECT_EQ(metrics.counter(prefix + "feasible_candidates").value(), 0)
          << name;
    }
  }
}

/// A partly loaded fleet for decision-level checks: VMs of `problem`
/// committed greedily to the first server that fits, stopping at `count`.
ClusterState loaded_cluster(const ProblemInstance& problem, std::size_t count) {
  ClusterState cluster(problem.servers, /*initial_horizon=*/0);
  for (std::size_t j = 0; j < count && j < problem.vms.size(); ++j) {
    const VmSpec& vm = problem.vms[j];
    cluster.ensure_horizon(vm.end);
    for (std::size_t i = (j * 7) % cluster.num_servers(), tried = 0;
         tried < cluster.num_servers();
         ++tried, i = (i + 1) % cluster.num_servers()) {
      if (cluster.timelines()[i].can_fit(vm)) {
        cluster.place(i, vm);
        break;
      }
    }
  }
  return cluster;
}

// min-incremental's untraced decision is the Eq. 17 arg-min, checked by
// brute force: its delta is the winner's incremental_cost, bit for bit; no
// feasible server is cheaper, and none before it in index order is as
// cheap.
TEST(ScanPolicyTest, MinIncrementalDecisionIsTheEq17ArgMin) {
  const ProblemInstance problem = stable_instance(29);
  const ClusterState cluster = loaded_cluster(problem, 60);
  const std::vector<ServerTimeline>& timelines = cluster.timelines();
  int decided = 0;
  for (std::size_t j = 60; j < 100; ++j) {
    const VmSpec& vm = problem.vms[j];
    const PlacementDecision d = decide("min-incremental", cluster, vm, false);
    if (d.server == kNoServer) {
      for (const ServerTimeline& t : timelines) EXPECT_FALSE(t.can_fit(vm));
      continue;
    }
    ++decided;
    const std::size_t best = static_cast<std::size_t>(d.server);
    ASSERT_TRUE(d.has_delta);
    EXPECT_EQ(d.delta, incremental_cost(timelines[best], vm)) << "vm " << j;
    for (std::size_t i = 0; i < timelines.size(); ++i) {
      if (!timelines[i].can_fit(vm)) continue;
      const Energy cost = incremental_cost(timelines[i], vm);
      if (i < best) {
        EXPECT_GT(cost, d.delta) << "vm " << j << " server " << i;
      } else {
        EXPECT_GE(cost, d.delta) << "vm " << j << " server " << i;
      }
    }
  }
  EXPECT_GT(decided, 0);
}

// Baselines score by something other than energy, so the untraced scan
// leaves the delta unpriced; the traced scan prices the same winner with
// incremental_cost for its decision record.
TEST(ScanPolicyTest, BaselineDecisionsCarryTheDeltaOnlyWhenTraced) {
  const ProblemInstance problem = stable_instance(37);
  const ClusterState cluster = loaded_cluster(problem, 40);
  for (const std::string& name : scan_allocators()) {
    if (name == "min-incremental") continue;
    for (std::size_t j = 40; j < 50; ++j) {
      const VmSpec& vm = problem.vms[j];
      const PlacementDecision fast = decide(name, cluster, vm, false);
      const PlacementDecision traced = decide(name, cluster, vm, true);
      ASSERT_EQ(fast.server, traced.server) << name << " vm " << j;
      EXPECT_FALSE(fast.has_delta) << name;
      if (traced.server == kNoServer) continue;
      EXPECT_TRUE(traced.has_delta) << name;
      EXPECT_EQ(traced.delta,
                incremental_cost(
                    cluster.timelines()[static_cast<std::size_t>(
                        traced.server)],
                    vm))
          << name << " vm " << j;
    }
  }
}

// place_one() only chooses: on both paths, for every scan allocator, it
// leaves every timeline and envelope row as it found them.
TEST(ScanPolicyTest, DecisionsNeverMutateTheCluster) {
  const ProblemInstance problem = stable_instance(41);
  const ClusterState cluster = loaded_cluster(problem, 50);
  const auto epochs = [&] {
    std::vector<std::uint64_t> out;
    for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
      out.push_back(cluster.timelines()[i].epoch());
      out.push_back(cluster.envelopes().epoch(i));
    }
    return out;
  };
  const std::vector<std::uint64_t> before = epochs();
  for (const std::string& name : scan_allocators()) {
    for (const bool traced : {false, true}) {
      for (std::size_t j = 50; j < 60; ++j)
        (void)decide(name, cluster, problem.vms[j], traced);
      EXPECT_EQ(epochs(), before) << name << (traced ? " traced" : "");
    }
  }
  EXPECT_TRUE(cluster.envelopes().debug_validate(cluster.timelines()));
}

// --- the scan primitive itself ----------------------------------------------

TEST(ScanCandidates, EmptyAndTinyRanges) {
  const auto nothing = [](std::size_t) -> std::optional<double> {
    return std::nullopt;
  };
  const ScanOutcome empty = scan_range(0, 0, nothing);
  EXPECT_EQ(empty.best, kNoCandidate);
  EXPECT_EQ(empty.feasible, 0);
  EXPECT_EQ(empty.rejected, 0);

  const ScanOutcome none_feasible = scan_range(0, 3, nothing);
  EXPECT_EQ(none_feasible.best, kNoCandidate);
  EXPECT_EQ(none_feasible.rejected, 3);

  const auto identity = [](std::size_t i) -> std::optional<double> {
    return static_cast<double>(i);
  };
  const ScanOutcome tiny = scan_range(0, 3, identity);
  EXPECT_EQ(tiny.best, 0u);
  EXPECT_EQ(tiny.best_score, 0.0);
  EXPECT_EQ(tiny.feasible, 3);
}

TEST(ScanCandidates, TiesBreakToLowestIndex) {
  // Scores: all equal except a strict minimum duplicated at 18 and 90 — the
  // strict < keeps index 18.
  const auto eval = [](std::size_t i) -> std::optional<double> {
    if (i % 7 == 3) return std::nullopt;  // sprinkle infeasibles
    return (i == 18 || i == 90) ? 1.0 : 2.0;
  };
  const ScanOutcome out = scan_range(0, 100, eval);
  EXPECT_EQ(out.best, 18u);
  EXPECT_EQ(out.best_score, 1.0);
  EXPECT_EQ(out.rejected, 14);
  EXPECT_EQ(out.feasible, 86);
}

// A sub-range scan visits exactly [lo, hi), in ascending order, and reports
// the winner by its absolute index.
TEST(ScanCandidates, SubrangeVisitsOnlyItsIndicesInOrder) {
  std::vector<std::size_t> visited;
  const auto eval = [&](std::size_t i) -> std::optional<double> {
    visited.push_back(i);
    if (i == 12) return std::nullopt;
    return static_cast<double>(i % 5);
  };
  const ScanOutcome out = scan_range(10, 20, eval);
  std::vector<std::size_t> expected;
  for (std::size_t i = 10; i < 20; ++i) expected.push_back(i);
  EXPECT_EQ(visited, expected);
  EXPECT_EQ(out.best, 10u);  // score 0 at 10 and 15: the lower index
  EXPECT_EQ(out.best_score, 0.0);
  EXPECT_EQ(out.feasible, 9);
  EXPECT_EQ(out.rejected, 1);
}

// Only a strictly smaller score displaces the incumbent, negative scores
// included: a strictly decreasing sequence ends at its last index.
TEST(ScanCandidates, StrictlySmallerLaterScoresWinIncludingNegatives) {
  const auto eval = [](std::size_t i) -> std::optional<double> {
    return 3.0 - static_cast<double>(i);
  };
  const ScanOutcome out = scan_range(0, 8, eval);
  EXPECT_EQ(out.best, 7u);
  EXPECT_EQ(out.best_score, -4.0);
  EXPECT_EQ(out.feasible, 8);
  EXPECT_EQ(out.rejected, 0);
}

TEST(ScanCandidates, EvalExceptionPropagates) {
  const auto eval = [](std::size_t i) -> std::optional<double> {
    if (i == 97) throw std::runtime_error("probe exploded");
    return static_cast<double>(i);
  };
  EXPECT_THROW(scan_range(0, 100, eval), std::runtime_error);
}

}  // namespace
}  // namespace esva

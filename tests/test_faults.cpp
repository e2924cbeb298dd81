// Fault-tolerance layer (core/fault_plan.h + the failure paths of
// core/streaming.h): FaultPlan CSV round-trips, the differential guarantee
// that an *empty* plan with retries disabled is byte-identical to the
// fault-free engine for every streamable allocator, seeded-chaos
// reproducibility, and hand-built evacuation / drain / retry-queue /
// downtime scenarios whose every counter is checked against a traced-by-hand
// schedule.

#include "core/fault_plan.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "cluster/catalog.h"
#include "cluster/timeline.h"
#include "core/allocation.h"
#include "core/cost_model.h"
#include "core/streaming.h"
#include "ext/register.h"
#include "sim/replay.h"
#include "test_util.h"
#include "util/rng.h"
#include "workload/arrival_stream.h"
#include "workload/generator.h"

namespace esva {
namespace {

// --- FaultPlan parsing and validation --------------------------------------

TEST(FaultPlanCsv, RoundTripsAndStableSortsByTime) {
  // Deliberately unsorted; the two events at t=30 must keep input order.
  std::vector<FaultEvent> events;
  events.push_back({30, FaultKind::kRecover, 2});
  events.push_back({10, FaultKind::kFail, 2});
  events.push_back({30, FaultKind::kFail, 0});
  events.push_back({5, FaultKind::kDrain, 1});
  const FaultPlan plan(std::move(events));
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan.events()[0].at, 5);
  EXPECT_EQ(plan.events()[1].at, 10);
  EXPECT_EQ(plan.events()[2].kind, FaultKind::kRecover);  // input order kept
  EXPECT_EQ(plan.events()[3].kind, FaultKind::kFail);

  std::stringstream csv;
  write_fault_plan(csv, plan);
  const FaultPlan reread = read_fault_plan(csv);
  ASSERT_EQ(reread.size(), plan.size());
  for (std::size_t k = 0; k < plan.size(); ++k) {
    EXPECT_EQ(reread.events()[k].at, plan.events()[k].at);
    EXPECT_EQ(reread.events()[k].kind, plan.events()[k].kind);
    EXPECT_EQ(reread.events()[k].server, plan.events()[k].server);
  }
}

TEST(FaultPlanCsv, MalformedInputsThrowWithLineNumbers) {
  const auto parse = [](const std::string& text) {
    std::stringstream in(text);
    return read_fault_plan(in);
  };
  EXPECT_THROW(parse(""), std::runtime_error);
  EXPECT_THROW(parse("time,event,server\n10,explode,0\n"), std::runtime_error);
  EXPECT_THROW(parse("time,event,server\nten,fail,0\n"), std::runtime_error);
  EXPECT_THROW(parse("time,event,server\n10,fail\n"), std::runtime_error);
  EXPECT_THROW(parse("time,event,server\n0,fail,0\n"), std::runtime_error);
  try {
    parse("time,event,server\n10,fail,0\n12,nope,1\n");
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(FaultPlanCsv, ValidateRejectsServersOutsideTheFleet) {
  std::vector<FaultEvent> events;
  events.push_back({10, FaultKind::kFail, 3});
  const FaultPlan plan(std::move(events));
  EXPECT_NO_THROW(plan.validate(4));
  EXPECT_THROW(plan.validate(3), std::invalid_argument);
}

TEST(FaultPlanCsv, RandomPlanIsDeterministicInSeed) {
  ChaosConfig config;
  config.num_servers = 8;
  config.failures = 5;
  Rng a(13), b(13), c(14);
  const FaultPlan pa = random_fault_plan(config, a);
  const FaultPlan pb = random_fault_plan(config, b);
  const FaultPlan pc = random_fault_plan(config, c);
  ASSERT_EQ(pa.size(), 10u);  // each failure paired with a recover
  ASSERT_EQ(pa.size(), pb.size());
  bool same_as_c = pa.size() == pc.size();
  for (std::size_t k = 0; k < pa.size(); ++k) {
    EXPECT_EQ(pa.events()[k].at, pb.events()[k].at);
    EXPECT_EQ(pa.events()[k].kind, pb.events()[k].kind);
    EXPECT_EQ(pa.events()[k].server, pb.events()[k].server);
    if (same_as_c && (pa.events()[k].at != pc.events()[k].at ||
                      pa.events()[k].server != pc.events()[k].server))
      same_as_c = false;
  }
  EXPECT_FALSE(same_as_c) << "different seeds produced the same plan";
  EXPECT_NO_THROW(pa.validate(config.num_servers));
}

// --- the differential guarantee: empty plan == no plan ----------------------

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

ProblemInstance chaos_instance(std::uint64_t seed, bool profiled) {
  WorkloadConfig config;
  config.num_vms = kNumVms;
  config.mean_interarrival = 1.5;
  config.mean_duration = 30.0;
  config.vm_types = all_vm_types();
  Rng rng(seed);
  std::vector<VmSpec> vms =
      profiled ? generate_bursty_workload(config, /*phases=*/4,
                                          /*valley_factor=*/0.45, rng)
               : generate_workload(config, rng);
  return make_problem(std::move(vms), make_fleet(kNumServers));
}

ReplayReport replay(const std::string& name, const ProblemInstance& problem,
                    const ReplayOptions& options) {
  AllocatorPtr allocator = make_allocator(name);
  std::unique_ptr<PlacementPolicy> policy = allocator->make_policy();
  EXPECT_NE(policy, nullptr) << name;
  Rng rng(7);
  VectorArrivalStream arrivals(problem.vms);
  return replay_stream(arrivals, problem.servers, *policy, rng, options);
}

TEST(FaultDifferential, EmptyPlanBitIdenticalForEveryStreamableAllocator) {
  register_extension_allocators();
  const FaultPlan empty_plan;
  for (const bool profiled : {false, true}) {
    const ProblemInstance problem = chaos_instance(11, profiled);
    for (const std::string& name : allocator_names()) {
      if (!make_allocator(name)->make_policy()) continue;
      ReplayOptions baseline;
      ReplayOptions with_plan;
      with_plan.faults = &empty_plan;  // non-null but event-free
      const ReplayReport a = replay(name, problem, baseline);
      const ReplayReport b = replay(name, problem, with_plan);
      // Byte-identical: same decisions, same rng stream, same energies.
      ASSERT_EQ(a.assignment, b.assignment)
          << name << (profiled ? " (profiled)" : " (stable)");
      EXPECT_EQ(a.total_energy, b.total_energy) << name;
      EXPECT_EQ(a.placed, b.placed) << name;
      EXPECT_EQ(a.rejected, b.rejected) << name;
      EXPECT_EQ(b.faults.fault_events, 0);
      EXPECT_EQ(b.faults.rejected_final, 0);
      EXPECT_EQ(b.faults.downtime_units, 0);
    }
  }
}

TEST(FaultDifferential, SeededChaosReplayIsReproducible) {
  register_extension_allocators();
  const ProblemInstance problem = chaos_instance(23, /*profiled=*/false);
  ChaosConfig chaos;
  chaos.num_servers = static_cast<std::size_t>(kNumServers);
  chaos.failures = 6;
  chaos.window_lo = 5;
  chaos.window_hi = 200;
  chaos.mean_repair = 40;
  Rng plan_rng(101);
  const FaultPlan plan = random_fault_plan(chaos, plan_rng);
  for (const std::string& name : {std::string("min-incremental"),
                                  std::string("random-fit")}) {
    ReplayOptions options;
    options.faults = &plan;
    options.retry.max_attempts = 3;
    const ReplayReport a = replay(name, problem, options);
    const ReplayReport b = replay(name, problem, options);
    ASSERT_EQ(a.assignment, b.assignment) << name;
    EXPECT_EQ(a.total_energy, b.total_energy) << name;
    EXPECT_EQ(a.faults.displaced, b.faults.displaced) << name;
    EXPECT_EQ(a.faults.evacuated, b.faults.evacuated) << name;
    EXPECT_EQ(a.faults.retries, b.faults.retries) << name;
    EXPECT_EQ(a.faults.retried_placed, b.faults.retried_placed) << name;
    EXPECT_EQ(a.faults.rejected_final, b.faults.rejected_final) << name;
    EXPECT_EQ(a.faults.downtime_units, b.faults.downtime_units) << name;
    EXPECT_GT(a.faults.fault_events, 0) << name;
  }
}

TEST(FaultDifferential, ThreadedScanMatchesSerialUnderFaults) {
  // The deterministic parallel candidate scan must stay deterministic when
  // evacuations and retries interleave extra place_one calls.
  const ProblemInstance problem = chaos_instance(31, /*profiled=*/false);
  ChaosConfig chaos;
  chaos.num_servers = static_cast<std::size_t>(kNumServers);
  chaos.failures = 4;
  chaos.window_lo = 5;
  chaos.window_hi = 150;
  Rng plan_rng(7);
  const FaultPlan plan = random_fault_plan(chaos, plan_rng);

  const auto run = [&](int threads) {
    AllocatorPtr allocator = make_allocator("min-incremental");
    ScanConfig scan;
    scan.threads = threads;
    allocator->set_scan_config(scan);
    std::unique_ptr<PlacementPolicy> policy = allocator->make_policy();
    EXPECT_NE(policy, nullptr);
    Rng rng(7);
    VectorArrivalStream arrivals(problem.vms);
    ReplayOptions options;
    options.faults = &plan;
    options.retry.max_attempts = 2;
    return replay_stream(arrivals, problem.servers, *policy, rng, options);
  };
  const ReplayReport serial = run(1);
  const ReplayReport threaded = run(4);
  ASSERT_EQ(serial.assignment, threaded.assignment);
  EXPECT_EQ(serial.total_energy, threaded.total_energy);
  EXPECT_EQ(serial.faults.evacuated, threaded.faults.evacuated);
  EXPECT_EQ(serial.faults.rejected_final, threaded.faults.rejected_final);
}

// --- hand-built engine scenarios -------------------------------------------

std::unique_ptr<PlacementPolicy> min_incremental_policy() {
  return make_allocator("min-incremental")->make_policy();
}

FaultPlan single_event_plan(Time at, FaultKind kind, ServerId server) {
  std::vector<FaultEvent> events;
  events.push_back({at, kind, server});
  return FaultPlan(std::move(events));
}

TEST(FaultEngine, FailureEvacuatesActiveVmToSurvivor) {
  const std::vector<ServerSpec> servers = {testing::basic_server(0),
                                           testing::basic_server(1)};
  const FaultPlan plan = single_event_plan(10, FaultKind::kFail, 0);
  std::unique_ptr<PlacementPolicy> policy = min_incremental_policy();
  Rng rng(7);
  EngineOptions options;
  options.auto_advance = true;
  options.account_energy = true;
  options.faults = &plan;
  PlacementEngine engine(servers, *policy, rng, options);

  const VmSpec vm0 = testing::vm(0, 1, 40);
  ASSERT_EQ(engine.submit(vm0).server, 0);  // tie breaks to the lowest id
  engine.advance_to(20);

  EXPECT_EQ(engine.cluster().health(0), ServerHealth::kFailed);
  EXPECT_EQ(engine.fault_stats().fault_events, 1);
  EXPECT_EQ(engine.fault_stats().displaced, 1);
  EXPECT_EQ(engine.fault_stats().evacuated, 1);
  EXPECT_EQ(engine.fault_stats().downtime_units, 0);  // re-placed instantly
  ASSERT_EQ(engine.resolutions().size(), 1u);
  EXPECT_EQ(engine.resolutions()[0].vm, 0);
  EXPECT_EQ(engine.resolutions()[0].server, 1);
  // The evacuated remainder is active on the survivor.
  EXPECT_EQ(engine.cluster().active_vms(), 1u);

  // Energy: the original placement, plus the clipped remainder's incremental
  // on the (empty) survivor, plus the first-order migration term.
  const VmSpec remainder = clip_to(vm0, 10);
  EXPECT_EQ(remainder.start, 10);
  EXPECT_EQ(remainder.end, 40);
  ServerTimeline s0(servers[0], /*horizon=*/64);
  const Energy base = incremental_cost(s0, vm0, options.cost);
  ServerTimeline s1(servers[1], /*horizon=*/64);
  const Energy evac = incremental_cost(s1, remainder, options.cost);
  const Energy migration =
      migration_energy(remainder, options.migration_cost_per_gib);
  EXPECT_DOUBLE_EQ(engine.total_energy(), base + evac + migration);
}

TEST(FaultEngine, UnEvacuableVmBecomesDowntimeNotACrash) {
  const std::vector<ServerSpec> servers = {testing::basic_server(0)};
  const FaultPlan plan = single_event_plan(5, FaultKind::kFail, 0);
  std::unique_ptr<PlacementPolicy> policy = min_incremental_policy();
  Rng rng(7);
  EngineOptions options;
  options.auto_advance = true;
  options.faults = &plan;
  PlacementEngine engine(servers, *policy, rng, options);

  ASSERT_EQ(engine.submit(testing::vm(0, 1, 20)).server, 0);
  EXPECT_NO_THROW(engine.advance_to(30));  // the failure must not crash
  EXPECT_EQ(engine.fault_stats().displaced, 1);
  EXPECT_EQ(engine.fault_stats().evacuated, 0);
  EXPECT_EQ(engine.fault_stats().rejected_final, 1);
  // Displaced at t=5, never re-placed: unserved for [5, 20] = 16 units.
  EXPECT_EQ(engine.fault_stats().downtime_units, 16);
  ASSERT_EQ(engine.resolutions().size(), 1u);
  EXPECT_EQ(engine.resolutions()[0].server, kNoServer);
  EXPECT_EQ(engine.cluster().active_vms(), 0u);
}

TEST(FaultEngine, DrainKeepsVmsRunningButRefusesNewPlacements) {
  const std::vector<ServerSpec> servers = {testing::basic_server(0)};
  const FaultPlan plan = single_event_plan(5, FaultKind::kDrain, 0);
  std::unique_ptr<PlacementPolicy> policy = min_incremental_policy();
  Rng rng(7);
  EngineOptions options;
  options.auto_advance = true;
  options.faults = &plan;
  PlacementEngine engine(servers, *policy, rng, options);

  ASSERT_EQ(engine.submit(testing::vm(0, 1, 20)).server, 0);
  engine.advance_to(6);
  EXPECT_EQ(engine.cluster().health(0), ServerHealth::kDrained);
  // The hosted VM keeps running (no displacement, no downtime) ...
  EXPECT_EQ(engine.cluster().active_vms(), 1u);
  EXPECT_EQ(engine.fault_stats().displaced, 0);
  // ... but the drained server takes nothing new.
  const PlacementDecision refused = engine.submit(testing::vm(1, 8, 12));
  EXPECT_EQ(refused.server, kNoServer);
  EXPECT_EQ(refused.reject, PlacementReject::kNoCapacity);
  // The resident VM retires through the normal sweep.
  engine.advance_to(25);
  EXPECT_EQ(engine.cluster().active_vms(), 0u);
}

TEST(FaultEngine, RecoverRestoresThePlacementSurface) {
  const std::vector<ServerSpec> servers = {testing::basic_server(0)};
  std::vector<FaultEvent> events;
  events.push_back({5, FaultKind::kFail, 0});
  events.push_back({15, FaultKind::kRecover, 0});
  const FaultPlan plan{std::move(events)};
  std::unique_ptr<PlacementPolicy> policy = min_incremental_policy();
  Rng rng(7);
  EngineOptions options;
  options.auto_advance = true;
  options.faults = &plan;
  PlacementEngine engine(servers, *policy, rng, options);

  engine.advance_to(10);
  EXPECT_EQ(engine.cluster().health(0), ServerHealth::kFailed);
  EXPECT_EQ(engine.submit(testing::vm(0, 10, 12)).server, kNoServer);
  engine.advance_to(16);
  EXPECT_EQ(engine.cluster().health(0), ServerHealth::kUp);
  EXPECT_EQ(engine.submit(testing::vm(1, 16, 30)).server, 0);
}

TEST(FaultEngine, EventsFarPastTheLastArrivalRebuildEmptyWindows) {
  // Regression: the planning horizon extends lazily with submitted VM ends,
  // so a recover (or any frontier jump) far past the last arrival used to
  // rebuild a timeline whose window length went negative and wrapped into a
  // std::length_error. The rebuild must clamp to an empty window instead,
  // and the next ensure_horizon must restore a usable placement surface.
  const std::vector<ServerSpec> servers = {testing::basic_server(0),
                                           testing::basic_server(1)};
  std::vector<FaultEvent> events;
  events.push_back({5, FaultKind::kFail, 0});
  events.push_back({100000, FaultKind::kRecover, 0});
  const FaultPlan plan{std::move(events)};
  std::unique_ptr<PlacementPolicy> policy = min_incremental_policy();
  Rng rng(7);
  EngineOptions options;
  options.auto_advance = true;
  options.faults = &plan;
  PlacementEngine engine(servers, *policy, rng, options);

  ASSERT_EQ(engine.submit(testing::vm(0, 1, 20)).server, 0);
  EXPECT_NO_THROW(engine.finish_stream());  // fires the far-future recover
  EXPECT_EQ(engine.fault_stats().fault_events, 2);
  EXPECT_EQ(engine.cluster().health(0), ServerHealth::kUp);
}

TEST(FaultEngine, ArrivalFarPastTheHorizonRebuildsEmptyWindows) {
  // Fault-free flavour of the same regression: a gap in arrivals wide
  // enough that the frontier overtakes the lazily-extended horizon makes
  // the retire sweep rebuild through the same negative-window path.
  const std::vector<ServerSpec> servers = {testing::basic_server(0)};
  std::unique_ptr<PlacementPolicy> policy = min_incremental_policy();
  Rng rng(7);
  EngineOptions options;
  options.auto_advance = true;
  PlacementEngine engine(servers, *policy, rng, options);

  ASSERT_EQ(engine.submit(testing::vm(0, 1, 4)).server, 0);
  VmSpec late = testing::vm(1, 100000, 100010);
  PlacementDecision decision;
  ASSERT_NO_THROW(decision = engine.submit(late));
  EXPECT_EQ(decision.server, 0);
}

TEST(RetryQueue, DeferredRequestPlacesOnceCapacityFrees) {
  // One server, fully occupied until t=10; the second request must wait in
  // the queue and land via a retry after the first retires.
  const std::vector<ServerSpec> servers = {testing::basic_server(0)};
  std::unique_ptr<PlacementPolicy> policy = min_incremental_policy();
  Rng rng(7);
  EngineOptions options;
  options.auto_advance = true;
  options.retry.max_attempts = 3;
  options.retry.base_delay = 8;
  PlacementEngine engine(servers, *policy, rng, options);

  ASSERT_EQ(engine.submit(testing::vm(0, 1, 10, /*cpu=*/10.0)).server, 0);
  const PlacementDecision deferred =
      engine.submit(testing::vm(1, 2, 30, /*cpu=*/10.0));
  EXPECT_EQ(deferred.server, kNoServer);
  EXPECT_EQ(deferred.reject, PlacementReject::kDeferred);
  EXPECT_EQ(engine.fault_stats().deferred, 1);

  // not_before = 2 + 8 = 10; at frontier 11 the first VM has retired.
  engine.advance_to(11);
  EXPECT_EQ(engine.fault_stats().retries, 1);
  EXPECT_EQ(engine.fault_stats().retried_placed, 1);
  EXPECT_EQ(engine.placed(), 2);
  ASSERT_EQ(engine.resolutions().size(), 1u);
  EXPECT_EQ(engine.resolutions()[0].vm, 1);
  EXPECT_EQ(engine.resolutions()[0].server, 0);
  EXPECT_EQ(engine.cluster().active_vms(), 1u);
}

TEST(RetryQueue, BoundedAttemptsExhaustIntoFinalRejection) {
  const std::vector<ServerSpec> servers = {testing::basic_server(0)};
  std::unique_ptr<PlacementPolicy> policy = min_incremental_policy();
  Rng rng(7);
  EngineOptions options;
  options.auto_advance = true;
  options.retry.max_attempts = 3;  // initial + 2 retries
  options.retry.base_delay = 8;
  options.retry.backoff = 2.0;
  PlacementEngine engine(servers, *policy, rng, options);

  // Occupies the whole server past every retry.
  ASSERT_EQ(engine.submit(testing::vm(0, 1, 100, /*cpu=*/10.0)).server, 0);
  EXPECT_EQ(engine.submit(testing::vm(1, 2, 50, /*cpu=*/10.0)).reject,
            PlacementReject::kDeferred);
  engine.finish_stream();
  EXPECT_EQ(engine.fault_stats().retries, 2);  // attempts 2 and 3
  EXPECT_EQ(engine.fault_stats().retried_placed, 0);
  EXPECT_EQ(engine.fault_stats().rejected_final, 1);
  EXPECT_EQ(engine.placed(), 1);
  // Idempotent: a second drain must not double-count anything.
  engine.finish_stream();
  EXPECT_EQ(engine.fault_stats().retries, 2);
  EXPECT_EQ(engine.fault_stats().rejected_final, 1);
}

TEST(RetryQueue, BackoffScheduleIsDeterministic) {
  RetryPolicy retry;
  retry.base_delay = 8;
  retry.backoff = 2.0;
  EXPECT_EQ(retry.delay_for(1), 8);
  EXPECT_EQ(retry.delay_for(2), 16);
  EXPECT_EQ(retry.delay_for(3), 32);
  retry.base_delay = 1;
  retry.backoff = 0.1;  // shrinking schedules still wait at least one unit
  EXPECT_EQ(retry.delay_for(2), 1);
  EXPECT_FALSE(RetryPolicy{}.enabled());
  retry.max_attempts = 4;
  EXPECT_TRUE(retry.enabled());
}

TEST(RetryQueue, CapacityBoundBouncesAdmissions) {
  const std::vector<ServerSpec> servers = {testing::basic_server(0)};
  std::unique_ptr<PlacementPolicy> policy = min_incremental_policy();
  Rng rng(7);
  EngineOptions options;
  options.auto_advance = true;
  options.retry.max_attempts = 2;
  options.retry.queue_capacity = 1;
  PlacementEngine engine(servers, *policy, rng, options);

  ASSERT_EQ(engine.submit(testing::vm(0, 1, 50, /*cpu=*/10.0)).server, 0);
  EXPECT_EQ(engine.submit(testing::vm(1, 2, 40, /*cpu=*/10.0)).reject,
            PlacementReject::kDeferred);
  const PlacementDecision bounced =
      engine.submit(testing::vm(2, 3, 40, /*cpu=*/10.0));
  EXPECT_EQ(bounced.reject, PlacementReject::kQueueFull);
  EXPECT_EQ(engine.fault_stats().queue_full, 1);
  EXPECT_EQ(engine.fault_stats().rejected_final, 1);
  EXPECT_EQ(engine.fault_stats().deferred, 1);
}

TEST(RetryQueue, DisplacedVmRetriedLaterAccruesDowntime) {
  // Two servers; both full when server 0 fails, so the displaced VM waits in
  // the queue and lands only after capacity frees — the wait is downtime.
  const std::vector<ServerSpec> servers = {testing::basic_server(0),
                                           testing::basic_server(1)};
  const FaultPlan plan = single_event_plan(5, FaultKind::kFail, 0);
  std::unique_ptr<PlacementPolicy> policy = min_incremental_policy();
  Rng rng(7);
  EngineOptions options;
  options.auto_advance = true;
  options.faults = &plan;
  options.retry.max_attempts = 4;
  options.retry.base_delay = 8;
  PlacementEngine engine(servers, *policy, rng, options);

  // vm0 on server 0; vm1 fills server 1 until t=12.
  ASSERT_EQ(engine.submit(testing::vm(0, 1, 30, /*cpu=*/10.0)).server, 0);
  ASSERT_EQ(engine.submit(testing::vm(1, 2, 12, /*cpu=*/10.0)).server, 1);
  engine.advance_to(6);  // the failure displaces vm0; server 1 is still full
  EXPECT_EQ(engine.fault_stats().displaced, 1);
  EXPECT_EQ(engine.fault_stats().evacuated, 0);
  EXPECT_EQ(engine.fault_stats().deferred, 1);
  // not_before = 5 + 8 = 13; by then vm1 (end 12) has retired.
  engine.advance_to(13);
  EXPECT_EQ(engine.fault_stats().retried_placed, 1);
  EXPECT_EQ(engine.fault_stats().evacuated, 1);
  // Down from the displacement at t=5 until the retry landed at t=13.
  EXPECT_EQ(engine.fault_stats().downtime_units, 8);
  ASSERT_EQ(engine.resolutions().size(), 2u);
  EXPECT_EQ(engine.resolutions()[0].server, kNoServer);  // evacuation failed
  EXPECT_EQ(engine.resolutions()[1].server, 1);          // retry landed
}

TEST(RetryQueue, FifoOrderBreaksTiesDeterministically) {
  // Three identical infeasible requests deferred at the same instant: their
  // retries fire in admission order (seq tiebreak), so with exactly one free
  // slot the *first* admitted wins — run twice to pin determinism.
  const auto run = [] {
    const std::vector<ServerSpec> servers = {testing::basic_server(0)};
    std::unique_ptr<PlacementPolicy> policy = min_incremental_policy();
    Rng rng(7);
    EngineOptions options;
    options.auto_advance = true;
    options.retry.max_attempts = 2;
    // not_before = 2 + 6 = 8, one tick past the blocker's retirement at 7.
    options.retry.base_delay = 6;
    PlacementEngine engine(servers, *policy, rng, options);
    EXPECT_EQ(engine.submit(testing::vm(0, 1, 6, /*cpu=*/10.0)).server, 0);
    for (VmId id : {1, 2, 3})
      EXPECT_EQ(engine
                    .submit(testing::vm(id, 2, 30, /*cpu=*/10.0))
                    .reject,
                PlacementReject::kDeferred);
    engine.finish_stream();
    // Hosting changes only: the two losers stay kNoServer from submit time,
    // so exactly one resolution — the winner's retry placement.
    EXPECT_EQ(engine.fault_stats().retried_placed, 1);
    EXPECT_EQ(engine.fault_stats().rejected_final, 2);
    return std::vector<Resolution>(engine.resolutions());
  };
  const std::vector<Resolution> a = run();
  const std::vector<Resolution> b = run();
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].vm, 1);  // first admitted retries first and wins the slot
  EXPECT_EQ(a[0].server, 0);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].vm, b[0].vm);
  EXPECT_EQ(a[0].server, b[0].server);
}

TEST(LateArrival, ToleratedPathRejectsStructurallyInsteadOfThrowing) {
  const std::vector<ServerSpec> servers = {testing::basic_server(0)};
  std::unique_ptr<PlacementPolicy> policy = min_incremental_policy();
  Rng rng(7);
  EngineOptions options;
  options.tolerate_late_arrivals = true;
  PlacementEngine engine(servers, *policy, rng, options);
  EXPECT_NE(engine.submit(testing::vm(0, 10, 20)).server, kNoServer);
  engine.advance_to(30);
  const PlacementDecision late = engine.submit(testing::vm(1, 25, 40));
  EXPECT_EQ(late.server, kNoServer);
  EXPECT_EQ(late.reject, PlacementReject::kLateArrival);
  EXPECT_EQ(engine.fault_stats().late_arrivals, 1);
  EXPECT_EQ(engine.requests(), 2);
}

// --- O(1) active-VM counter -------------------------------------------------

TEST(ClusterStateCounter, ActiveCountMatchesScanThroughFaultsAndRetirement) {
  ClusterState cluster({testing::basic_server(0), testing::basic_server(1)},
                       /*initial_horizon=*/64);
  EXPECT_EQ(cluster.active_vms(), 0u);
  cluster.place(0, testing::vm(0, 1, 10));
  cluster.place(0, testing::vm(1, 5, 20));
  cluster.place(1, testing::vm(2, 1, 30));
  EXPECT_EQ(cluster.active_vms(), 3u);
  EXPECT_EQ(cluster.active_vms(), cluster.active_vms_scan());
  cluster.advance_to(15);  // retires vm0
  EXPECT_EQ(cluster.active_vms(), 2u);
  EXPECT_EQ(cluster.active_vms(), cluster.active_vms_scan());
  const std::vector<VmSpec> displaced = cluster.fail_server(0);
  EXPECT_EQ(displaced.size(), 1u);  // vm1
  EXPECT_EQ(cluster.active_vms(), 1u);
  EXPECT_EQ(cluster.active_vms(), cluster.active_vms_scan());
  cluster.advance_to(40);
  EXPECT_EQ(cluster.active_vms(), 0u);
  EXPECT_EQ(cluster.active_vms(), cluster.active_vms_scan());
}

// The running count against its recount after every engine operation of a
// seeded chaos run (failures, recoveries, evacuations, retries, early
// retirements), and the tree footprint back to 0 once everything retired.
TEST(ClusterStateCounter, RecountHoldsAfterEveryChaosEngineOperation) {
  const ProblemInstance problem = chaos_instance(23, /*profiled=*/false);
  ChaosConfig chaos;
  chaos.num_servers = static_cast<std::size_t>(kNumServers);
  chaos.failures = 6;
  chaos.window_lo = 5;
  chaos.window_hi = 200;
  chaos.mean_repair = 40;
  Rng plan_rng(101);
  const FaultPlan plan = random_fault_plan(chaos, plan_rng);
  std::unique_ptr<PlacementPolicy> policy = min_incremental_policy();
  Rng rng(7);
  EngineOptions options;
  options.auto_advance = true;
  options.faults = &plan;
  options.retry.max_attempts = 3;
  PlacementEngine engine(problem.servers, *policy, rng, options);
  const ClusterState& cluster = engine.cluster();
  const auto recount = [&](const char* when, std::size_t k) {
    ASSERT_EQ(cluster.active_vms(), cluster.active_vms_scan())
        << when << " at request " << k;
  };
  std::size_t k = 0;
  for (const std::size_t j : ordered_indices(problem, VmOrder::ByStartTime)) {
    engine.submit(problem.vms[j]);
    recount("submit", k);
    if (k % 9 == 4) {
      engine.retire_vm(problem.vms[j].id);  // just placed (or queued)
      recount("retire_vm", k);
    }
    if (k % 13 == 6) {
      engine.retire_vm(1000000);  // unknown id
      recount("retire_vm(unknown)", k);
    }
    ++k;
  }
  engine.finish_stream();
  recount("finish_stream", k);
  Time last_end = 0;
  for (const VmSpec& vm : problem.vms) last_end = std::max(last_end, vm.end);
  engine.advance_to(last_end + 1000);
  recount("final advance", k);
  EXPECT_EQ(cluster.active_vms(), 0u);
  EXPECT_EQ(cluster.resident_time_units(), 0u);
  EXPECT_GT(engine.fault_stats().displaced, 0);
}

}  // namespace
}  // namespace esva

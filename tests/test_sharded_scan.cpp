// Differential fuzz harness for the sharded fleet scan (core/shard.h +
// core/candidate_scan.h): partitioning the fleet into contiguous shard
// blocks — and sweeping them concurrently — is a pure layout/parallelism
// knob. Every scan-based allocator's assignment must stay *byte-identical*
// to the unsharded serial scan at any shard count, any strategy, any thread
// count, cache on or off, under faults or not.
//
// Four layers of evidence:
//   1. partition-level: FleetPartition structural invariants
//      (debug_validate), clamping, determinism across rebuilds, and the
//      per-strategy grouping semantics (type cohesion, band monotonicity,
//      contiguous identity);
//   2. store-level: the permuted EnvelopeStore reset mirrors
//      timelines[original_of[r]] per row, and the block-ranged classify
//      writes exactly [lo, hi) with the same verdicts as the full sweep;
//   3. end-to-end identity: full allocations and chaos replays, sharded vs
//      unsharded — assignments, energies, and fault counters match exactly
//      across allocators × strategies × shard counts × threads × cache;
//   4. isolation: a fault (or placement) in shard A advances only shard A's
//      epoch — shard B's ClusterState::shard_epoch and envelope rows are
//      untouched — and multi-shard fleet samples slice the totals exactly.
//
// ESVA_FUZZ_QUICK=1 (set by ctest in Debug CI; see tests/CMakeLists.txt)
// shrinks the sweep widths so sanitizer jobs fit their time budget. The
// properties checked are identical in both modes.

#include "core/shard.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "cluster/catalog.h"
#include "cluster/datacenter.h"
#include "cluster/timeline.h"
#include "core/allocation.h"
#include "core/candidate_scan.h"
#include "core/envelope_store.h"
#include "core/fault_plan.h"
#include "core/streaming.h"
#include "obs/timeseries.h"
#include "sim/replay.h"
#include "test_util.h"
#include "util/rng.h"
#include "workload/arrival_stream.h"
#include "workload/generator.h"

namespace esva {
namespace {

/// True when ESVA_FUZZ_QUICK is set to anything non-empty except "0" (the
/// Debug-CI and sanitizer budget; tests/CMakeLists.txt wires it through
/// ctest). Only sweep widths shrink; the properties are identical.
bool fuzz_quick() {
  const char* env = std::getenv("ESVA_FUZZ_QUICK");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

constexpr int kNumVms = 220;
constexpr int kNumServers = 44;

const std::vector<ShardBy>& all_strategies() {
  static const std::vector<ShardBy> kAll = {ShardBy::kContiguous,
                                            ShardBy::kType, ShardBy::kBand,
                                            ShardBy::kHash};
  return kAll;
}

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

ProblemInstance stable_instance(std::uint64_t seed) {
  WorkloadConfig config;
  config.num_vms = kNumVms;
  config.mean_interarrival = 1.5;
  config.mean_duration = 30.0;
  config.vm_types = all_vm_types();
  Rng rng(seed);
  return make_problem(generate_workload(config, rng), make_fleet(kNumServers));
}

// --- layer 1: FleetPartition structure, clamping, determinism ---------------

TEST(FleetPartitionTest, InvariantsHoldAcrossStrategiesAndCounts) {
  const std::vector<int> fleet_sizes =
      fuzz_quick() ? std::vector<int>{1, 44} : std::vector<int>{1, 3, 44, 131};
  for (const int n : fleet_sizes) {
    const std::vector<ServerSpec> fleet = make_fleet(n);
    for (const ShardBy by : all_strategies()) {
      for (const int shards : {1, 2, 4, 16, 64}) {
        const FleetPartition partition(fleet, ShardOptions{shards, by});
        ASSERT_TRUE(partition.debug_validate())
            << "n=" << n << " by=" << to_string(by) << " shards=" << shards;
        EXPECT_EQ(partition.num_servers(), static_cast<std::size_t>(n));
        // Clamped to [1, n].
        EXPECT_GE(partition.num_shards(), 1u);
        EXPECT_LE(partition.num_shards(),
                  static_cast<std::size_t>(std::min(shards, n)));
        // Blocks tile [0, n) and every member maps into its block.
        EXPECT_EQ(partition.shard_begin(0), 0u);
        EXPECT_EQ(partition.shard_end(partition.num_shards() - 1),
                  static_cast<std::size_t>(n));
        for (std::size_t i = 0; i < partition.num_servers(); ++i) {
          const std::size_t s = partition.shard_of(i);
          const std::size_t r = partition.storage_of(i);
          EXPECT_GE(r, partition.shard_begin(s));
          EXPECT_LT(r, partition.shard_end(s));
          EXPECT_EQ(partition.original_of()[r], i);
        }
      }
    }
  }
}

TEST(FleetPartitionTest, ShardCountFloorsAtOne) {
  const std::vector<ServerSpec> fleet = make_fleet(8);
  for (const int shards : {-3, 0, 1}) {
    const FleetPartition partition(fleet,
                                   ShardOptions{shards, ShardBy::kHash});
    EXPECT_EQ(partition.num_shards(), 1u) << shards;
    // A single shard is always the identity layout, regardless of strategy.
    EXPECT_TRUE(partition.identity()) << shards;
  }
}

TEST(FleetPartitionTest, DeterministicAcrossRebuilds) {
  const std::vector<ServerSpec> fleet = make_fleet(37);
  for (const ShardBy by : all_strategies()) {
    const ShardOptions options{5, by};
    const FleetPartition a(fleet, options);
    const FleetPartition b(fleet, options);
    ASSERT_EQ(a.num_shards(), b.num_shards()) << to_string(by);
    EXPECT_EQ(a.original_of(), b.original_of()) << to_string(by);
    for (std::size_t i = 0; i < a.num_servers(); ++i) {
      ASSERT_EQ(a.shard_of(i), b.shard_of(i)) << to_string(by) << " " << i;
    }
  }
}

TEST(FleetPartitionTest, ContiguousIsIdentityAndBalanced) {
  const FleetPartition partition(make_fleet(10),
                                 ShardOptions{4, ShardBy::kContiguous});
  EXPECT_TRUE(partition.identity());
  ASSERT_EQ(partition.num_shards(), 4u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(partition.storage_of(i), i);
    // Balanced index ranges: floor(i * shards / n) is non-decreasing.
    EXPECT_EQ(partition.shard_of(i), i * 4 / 10);
  }
  // Block sizes differ by at most one.
  for (std::size_t s = 0; s < partition.num_shards(); ++s) {
    const std::size_t size = partition.shard_end(s) - partition.shard_begin(s);
    EXPECT_GE(size, 2u);
    EXPECT_LE(size, 3u);
  }
}

TEST(FleetPartitionTest, TypeStrategyKeepsEachTypeInOneShard) {
  const std::vector<ServerSpec> fleet = make_fleet(kNumServers);
  const FleetPartition partition(fleet, ShardOptions{3, ShardBy::kType});
  ASSERT_TRUE(partition.debug_validate());
  // Servers sharing a catalog type never straddle shards.
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    for (std::size_t j = i + 1; j < fleet.size(); ++j) {
      if (fleet[i].type_name == fleet[j].type_name) {
        EXPECT_EQ(partition.shard_of(i), partition.shard_of(j))
            << fleet[i].type_name;
      }
    }
  }
}

TEST(FleetPartitionTest, BandStrategyOrdersShardsByUnitRunPower) {
  const std::vector<ServerSpec> fleet = make_fleet(kNumServers);
  const FleetPartition partition(fleet, ShardOptions{4, ShardBy::kBand});
  ASSERT_TRUE(partition.debug_validate());
  // A more power-efficient server (lower marginal run power per CPU unit)
  // never lands in a higher band than a less efficient one.
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    for (std::size_t j = 0; j < fleet.size(); ++j) {
      if (fleet[i].unit_run_power() < fleet[j].unit_run_power()) {
        EXPECT_LE(partition.shard_of(i), partition.shard_of(j)) << i << " " << j;
      }
    }
  }
}

TEST(FleetPartitionTest, HashStrategyPermutesButStaysStableWithinBlocks) {
  const FleetPartition partition(make_fleet(kNumServers),
                                 ShardOptions{8, ShardBy::kHash});
  ASSERT_TRUE(partition.debug_validate());
  EXPECT_FALSE(partition.identity());
  // Within each block, original indices ascend — the stability property the
  // deterministic merge depends on.
  for (std::size_t s = 0; s < partition.num_shards(); ++s) {
    for (std::size_t r = partition.shard_begin(s) + 1;
         r < partition.shard_end(s); ++r) {
      EXPECT_LT(partition.original_of()[r - 1], partition.original_of()[r]);
    }
  }
}

TEST(ShardByTest, ParseRoundTripsAndRejectsUnknown) {
  for (const ShardBy by : all_strategies()) {
    ShardBy parsed = ShardBy::kHash;
    ASSERT_TRUE(parse_shard_by(to_string(by), &parsed)) << to_string(by);
    EXPECT_EQ(parsed, by);
  }
  ShardBy untouched = ShardBy::kBand;
  EXPECT_FALSE(parse_shard_by("zone", &untouched));
  EXPECT_FALSE(parse_shard_by("", &untouched));
  EXPECT_EQ(untouched, ShardBy::kBand);
}

// --- layer 2: permuted envelope rows and block-ranged classify --------------

TEST(ShardedEnvelopeTest, PermutedResetMirrorsTimelinesPerRow) {
  const std::vector<ServerSpec> fleet = make_fleet(12);
  const FleetPartition partition(fleet, ShardOptions{4, ShardBy::kHash});
  std::vector<ServerTimeline> timelines;
  for (const ServerSpec& spec : fleet) timelines.emplace_back(spec, 80);
  timelines[3].place(testing::vm(1, 5, 20, 2.0, 2.0));
  timelines[9].place(testing::vm(2, 10, 40, 1.0, 3.0));

  EnvelopeStore store;
  store.reset(timelines, partition.original_of());
  ASSERT_TRUE(store.debug_validate(timelines, partition.original_of()));
  // The identity overload must reject the permuted layout (and vice versa,
  // validated below after a refresh) — the validator discriminates.
  EXPECT_FALSE(store.debug_validate(timelines));

  // Refresh flows through the *storage* row: mutate a timeline, refresh at
  // storage_of, and the permuted validator passes again.
  timelines[9].place(testing::vm(3, 15, 25, 0.5, 0.5));
  EXPECT_FALSE(store.debug_validate(timelines, partition.original_of()));
  store.refresh(partition.storage_of(9), timelines[9]);
  EXPECT_TRUE(store.debug_validate(timelines, partition.original_of()));
}

TEST(ShardedEnvelopeTest, BlockClassifyMatchesFullSweepAndWritesOnlyItsRange) {
  const std::vector<ServerSpec> fleet = make_fleet(kNumServers);
  const FleetPartition partition(fleet, ShardOptions{5, ShardBy::kBand});
  std::vector<ServerTimeline> timelines;
  for (const ServerSpec& spec : fleet) timelines.emplace_back(spec, 120);
  Rng rng(42);
  for (int k = 0; k < 40; ++k) {
    const std::size_t i = rng.index(timelines.size());
    const Time start = static_cast<Time>(rng.uniform_int(1, 80));
    const VmSpec vm =
        testing::vm(100 + k, start, start + static_cast<Time>(rng.uniform_int(1, 30)),
                    rng.uniform_double(0.1, 4.0), rng.uniform_double(0.1, 4.0));
    if (timelines[i].can_fit(vm)) timelines[i].place(vm);
  }
  EnvelopeStore store;
  store.reset(timelines, partition.original_of());

  const VmSpec probe_vm = testing::vm(9000, 30, 55, 2.0, 2.0);
  const EnvelopeStore::Probe probe = EnvelopeStore::probe_of(probe_vm);
  std::vector<std::uint8_t> full(timelines.size());
  store.classify(probe, full.data());

  constexpr std::uint8_t kSentinel = 0xCD;
  std::vector<std::uint8_t> blocked(timelines.size(), kSentinel);
  for (std::size_t s = 0; s < partition.num_shards(); ++s) {
    std::vector<std::uint8_t> scratch(timelines.size(), kSentinel);
    store.classify(probe, partition.shard_begin(s), partition.shard_end(s),
                   scratch.data());
    for (std::size_t r = 0; r < timelines.size(); ++r) {
      const bool inside =
          r >= partition.shard_begin(s) && r < partition.shard_end(s);
      if (inside) {
        EXPECT_EQ(scratch[r], full[r]) << "shard " << s << " row " << r;
        blocked[r] = scratch[r];
      } else {
        // Rows outside [lo, hi) are untouched — the race-freedom contract of
        // concurrent per-shard sweeps into one shared verdict buffer.
        EXPECT_EQ(scratch[r], kSentinel) << "shard " << s << " row " << r;
      }
    }
  }
  EXPECT_EQ(blocked, full);  // the blocks tile the fleet exactly
}

// --- layer 3: end-to-end byte identity, sharded vs unsharded ----------------

Allocation run_alloc(const std::string& name, const ProblemInstance& problem,
                     int threads, bool cache, int shards, ShardBy by) {
  AllocatorPtr allocator = make_allocator(name);
  ScanConfig scan;
  scan.threads = threads;
  scan.cache = cache;
  scan.shards = shards;
  scan.shard_by = by;
  allocator->set_scan_config(scan);
  Rng rng(7);
  return allocator->allocate(problem, rng);
}

TEST(ShardedDifferential, ByteIdenticalAcrossStrategiesShardsThreadsCache) {
  const std::vector<std::string> names =
      fuzz_quick()
          ? std::vector<std::string>{"min-incremental", "lowest-idle-power"}
          : scan_allocators();
  const std::vector<ShardBy> strategies =
      fuzz_quick()
          ? std::vector<ShardBy>{ShardBy::kContiguous, ShardBy::kHash}
          : all_strategies();
  const std::vector<int> shard_counts =
      fuzz_quick() ? std::vector<int>{4, 64} : std::vector<int>{4, 16, 64};
  const std::vector<int> thread_counts =
      fuzz_quick() ? std::vector<int>{1, 4} : std::vector<int>{1, 4, 8};
  const ProblemInstance problem = stable_instance(23);
  for (const std::string& name : names) {
    // The reference: unsharded, serial, uncached — the historical scan.
    const Allocation reference = run_alloc(name, problem, /*threads=*/1,
                                           /*cache=*/false, /*shards=*/1,
                                           ShardBy::kContiguous);
    // Every strategy at every shard count reproduces it (serial sweep).
    for (const ShardBy by : strategies) {
      for (const int shards : shard_counts) {
        const Allocation sharded =
            run_alloc(name, problem, 1, false, shards, by);
        ASSERT_EQ(reference.assignment, sharded.assignment)
            << name << " by=" << to_string(by) << " shards=" << shards;
      }
    }
    // The concurrent sweep and the scan cache change nothing either, even
    // composed with the worst-case (non-identity) permutation.
    for (const int threads : thread_counts) {
      for (const bool cache : {false, true}) {
        const Allocation sharded =
            run_alloc(name, problem, threads, cache, 16, ShardBy::kHash);
        ASSERT_EQ(reference.assignment, sharded.assignment)
            << name << " threads=" << threads << " cache=" << cache;
      }
    }
    // Same double bits in, same bits out: energies match exactly.
    EXPECT_EQ(evaluate_cost(problem, reference).total(),
              evaluate_cost(problem,
                            run_alloc(name, problem, 4, true, 64, ShardBy::kType))
                  .total())
        << name;
  }
}

ReplayReport replay_chaos(const std::string& name,
                          const ProblemInstance& problem,
                          const FaultPlan& plan, int shards, ShardBy by,
                          int threads) {
  AllocatorPtr allocator = make_allocator(name);
  ScanConfig scan;
  scan.threads = threads;
  scan.shards = shards;
  scan.shard_by = by;
  allocator->set_scan_config(scan);
  std::unique_ptr<PlacementPolicy> policy = allocator->make_policy();
  EXPECT_NE(policy, nullptr) << name;
  Rng rng(7);
  VectorArrivalStream arrivals(problem.vms);
  ReplayOptions options;
  options.faults = &plan;
  options.retry.max_attempts = 3;
  options.shard = scan.shard_options();
  return replay_stream(arrivals, problem.servers, *policy, rng, options);
}

// Chaos stream: failures stub timelines, recoveries rebuild them, retries
// interleave extra scans, rolling GC permutes rebuild timing — the sharded
// sweep must track every transition, so assignments, energies, and every
// fault counter match the unsharded replay exactly.
TEST(ShardedDifferential, ChaosReplayByteIdentical) {
  const ProblemInstance problem = stable_instance(31);
  ChaosConfig chaos;
  chaos.num_servers = static_cast<std::size_t>(kNumServers);
  chaos.failures = 6;
  chaos.window_lo = 5;
  chaos.window_hi = 200;
  chaos.mean_repair = 40;
  Rng plan_rng(101);
  const FaultPlan plan = random_fault_plan(chaos, plan_rng);
  const std::vector<std::string> names =
      fuzz_quick()
          ? std::vector<std::string>{"min-incremental"}
          : std::vector<std::string>{"min-incremental", "lowest-idle-power"};
  for (const std::string& name : names) {
    const ReplayReport reference =
        replay_chaos(name, problem, plan, 1, ShardBy::kContiguous, 1);
    EXPECT_GT(reference.faults.fault_events, 0) << name;
    for (const auto& [shards, by, threads] :
         {std::tuple{8, ShardBy::kHash, 1}, std::tuple{8, ShardBy::kHash, 4},
          std::tuple{16, ShardBy::kBand, 4}}) {
      const ReplayReport sharded =
          replay_chaos(name, problem, plan, shards, by, threads);
      ASSERT_EQ(reference.assignment, sharded.assignment)
          << name << " shards=" << shards << " by=" << to_string(by)
          << " threads=" << threads;
      EXPECT_EQ(reference.total_energy, sharded.total_energy) << name;
      EXPECT_EQ(reference.placed, sharded.placed) << name;
      EXPECT_EQ(reference.rejected, sharded.rejected) << name;
      EXPECT_EQ(reference.faults.displaced, sharded.faults.displaced) << name;
      EXPECT_EQ(reference.faults.evacuated, sharded.faults.evacuated) << name;
      EXPECT_EQ(reference.faults.retries, sharded.faults.retries) << name;
      EXPECT_EQ(reference.faults.rejected_final, sharded.faults.rejected_final)
          << name;
      EXPECT_EQ(reference.faults.downtime_units, sharded.faults.downtime_units)
          << name;
    }
  }
}

// --- layer 4: shard isolation and per-shard sampling ------------------------

// A fault (or any per-server mutation) in shard A advances only shard A's
// epoch: shard B's ClusterState::shard_epoch and its envelope rows are
// byte-untouched. Horizon growth rebuilds nothing, so it advances no shard's
// epoch at all — in particular none of a shard that hosts nothing.
TEST(ShardIsolation, FaultInOneShardLeavesOtherShardsUntouched) {
  ClusterState cluster(make_fleet(16), /*initial_horizon=*/0,
                       ShardOptions{4, ShardBy::kContiguous});
  const FleetPartition& partition = cluster.partition();
  ASSERT_EQ(partition.num_shards(), 4u);

  const auto epochs = [&] {
    std::vector<std::uint64_t> out;
    for (std::size_t s = 0; s < partition.num_shards(); ++s)
      out.push_back(cluster.shard_epoch(s));
    return out;
  };
  const auto row_epochs = [&] {
    std::vector<std::uint64_t> out;
    for (std::size_t r = 0; r < cluster.num_servers(); ++r)
      out.push_back(cluster.envelopes().epoch(r));
    return out;
  };
  const auto expect_only = [&](std::size_t touched_shard,
                               const std::vector<std::uint64_t>& before,
                               const char* when) {
    const std::vector<std::uint64_t> after = epochs();
    for (std::size_t s = 0; s < partition.num_shards(); ++s) {
      if (s == touched_shard) {
        EXPECT_GT(after[s], before[s]) << when << " shard " << s;
      } else {
        EXPECT_EQ(after[s], before[s]) << when << " shard " << s;
      }
    }
  };

  // Pick a victim in shard 1 and a witness row set covering every other
  // shard's envelope rows.
  std::size_t victim = 0;
  while (partition.shard_of(victim) != 1) ++victim;

  // Horizon growth on an empty fleet: no shard epoch or row moves.
  std::vector<std::uint64_t> before = epochs();
  std::vector<std::uint64_t> rows_before = row_epochs();
  cluster.ensure_horizon(300);
  EXPECT_EQ(epochs(), before) << "ensure_horizon";
  EXPECT_EQ(row_epochs(), rows_before) << "ensure_horizon";

  // place: only the victim's shard moves.
  const VmSpec vm = testing::vm(1, 5, 30, 1.0, 1.0);
  ASSERT_TRUE(cluster.timelines()[victim].can_fit(vm));
  cluster.place(victim, vm);
  expect_only(1, before, "place");

  // Horizon growth with shard 1 hosting a VM: the three shards that host
  // nothing keep their epochs (and shard 1 keeps its own too).
  before = epochs();
  cluster.ensure_horizon(5000);
  EXPECT_EQ(epochs(), before) << "ensure_horizon while hosting";

  // fail: displaces the VM, stubs the timeline — still shard-local.
  before = epochs();
  const std::vector<VmSpec> displaced = cluster.fail_server(victim);
  EXPECT_EQ(displaced.size(), 1u);
  expect_only(1, before, "fail_server");

  // recover: rebuilds the one timeline — still shard-local.
  before = epochs();
  cluster.recover_server(victim);
  expect_only(1, before, "recover_server");

  // drain: stubs without displacement — still shard-local.
  before = epochs();
  cluster.drain_server(victim);
  expect_only(1, before, "drain_server");

  // Envelope rows outside shard 1's block never saw a refresh.
  const std::vector<std::uint64_t> rows_after = row_epochs();
  for (std::size_t r = 0; r < cluster.num_servers(); ++r) {
    const bool in_shard_1 =
        r >= partition.shard_begin(1) && r < partition.shard_end(1);
    if (!in_shard_1) {
      EXPECT_EQ(rows_after[r], rows_before[r]) << "row " << r;
    }
  }
  ASSERT_TRUE(cluster.envelopes().debug_validate(cluster.timelines(),
                                                 partition.original_of()));
}

// sample(t) on a multi-shard cluster slices the fleet totals exactly: per-
// shard counts and power sum back to the fleet-wide fields, and the slices
// land in the right shard.
TEST(ShardIsolation, FleetSampleSlicesTotalsPerShard) {
  ClusterState cluster(make_fleet(12), /*initial_horizon=*/100,
                       ShardOptions{3, ShardBy::kContiguous});
  const VmSpec a = testing::vm(1, 2, 40, 1.0, 1.0);   // server 0 -> shard 0
  const VmSpec b = testing::vm(2, 2, 40, 2.0, 1.0);   // server 5 -> shard 1
  ASSERT_TRUE(cluster.timelines()[0].can_fit(a));
  ASSERT_TRUE(cluster.timelines()[5].can_fit(b));
  cluster.place(0, a);
  cluster.place(5, b);

  const FleetSample sample = cluster.sample(/*t=*/10);
  ASSERT_EQ(sample.shards.size(), 3u);
  std::uint32_t active = 0, busy = 0, idle = 0;
  double power = 0.0;
  for (const ShardLoad& shard : sample.shards) {
    active += shard.active_vms;
    busy += shard.busy_servers;
    idle += shard.idle_servers;
    power += shard.power_w;
  }
  EXPECT_EQ(active, sample.active_vms);
  EXPECT_EQ(busy, sample.busy_servers);
  EXPECT_EQ(idle, sample.idle_servers);
  EXPECT_DOUBLE_EQ(power, sample.total_power_w);
  EXPECT_EQ(sample.shards[0].active_vms, 1u);
  EXPECT_EQ(sample.shards[1].active_vms, 1u);
  EXPECT_EQ(sample.shards[2].active_vms, 0u);
  EXPECT_EQ(sample.shards[2].power_w, 0.0);

  // An unsharded cluster leaves the per-shard vector empty (CSV/JSONL schema
  // stability for existing consumers).
  ClusterState flat(make_fleet(4), /*initial_horizon=*/50);
  EXPECT_TRUE(flat.sample(5).shards.empty());
}

}  // namespace
}  // namespace esva

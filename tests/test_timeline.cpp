#include "cluster/timeline.h"

#include <gtest/gtest.h>

#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/candidate_scan.h"
#include "core/cost_model.h"
#include "test_util.h"
#include "util/rng.h"

namespace esva {
namespace {

using testing::basic_server;
using testing::vm;

TEST(ServerTimeline, EmptyTimelineFitsAnythingWithinCapacity) {
  ServerTimeline timeline(basic_server(), 100);
  EXPECT_TRUE(timeline.can_fit(vm(0, 1, 100, 10.0, 10.0)));   // exactly full
  EXPECT_FALSE(timeline.can_fit(vm(0, 1, 10, 10.1, 1.0)));    // CPU over
  EXPECT_FALSE(timeline.can_fit(vm(0, 1, 10, 1.0, 10.1)));    // memory over
}

TEST(ServerTimeline, VmBeyondHorizonDoesNotFit) {
  ServerTimeline timeline(basic_server(), 50);
  EXPECT_TRUE(timeline.can_fit(vm(0, 45, 50)));
  EXPECT_FALSE(timeline.can_fit(vm(0, 45, 51)));
}

TEST(ServerTimeline, CapacityIsPerTimeUnitNotAggregate) {
  ServerTimeline timeline(basic_server(), 100);
  timeline.place(vm(0, 1, 50, 6.0, 1.0));
  // Overlapping VM needing 6 CPU doesn't fit (6+6 > 10)...
  EXPECT_FALSE(timeline.can_fit(vm(1, 25, 75, 6.0, 1.0)));
  // ...but the same VM after the first one finishes does.
  EXPECT_TRUE(timeline.can_fit(vm(1, 51, 100, 6.0, 1.0)));
  // And a smaller overlapping VM fits.
  EXPECT_TRUE(timeline.can_fit(vm(1, 25, 75, 4.0, 1.0)));
}

TEST(ServerTimeline, MemoryDimensionIsCheckedIndependently) {
  ServerTimeline timeline(basic_server(), 100);
  timeline.place(vm(0, 1, 50, 1.0, 9.0));
  EXPECT_FALSE(timeline.can_fit(vm(1, 50, 60, 1.0, 2.0)));  // mem clash at t=50
  EXPECT_TRUE(timeline.can_fit(vm(1, 51, 60, 1.0, 2.0)));
}

TEST(ServerTimeline, PlaceUpdatesBusyAndUsage) {
  ServerTimeline timeline(basic_server(), 100);
  timeline.place(vm(0, 10, 20, 3.0, 2.0));
  timeline.place(vm(1, 15, 30, 2.0, 1.0));
  EXPECT_EQ(timeline.busy().intervals().size(), 1u);
  EXPECT_EQ(timeline.busy().intervals()[0], (Interval{10, 30}));
  EXPECT_DOUBLE_EQ(timeline.cpu_usage_at(12), 3.0);
  EXPECT_DOUBLE_EQ(timeline.cpu_usage_at(17), 5.0);
  EXPECT_DOUBLE_EQ(timeline.cpu_usage_at(25), 2.0);
  EXPECT_DOUBLE_EQ(timeline.cpu_usage_at(31), 0.0);
  EXPECT_DOUBLE_EQ(timeline.mem_usage_at(17), 3.0);
  EXPECT_EQ(timeline.busy_time(), 21);
  EXPECT_EQ(timeline.vms(), (std::vector<VmId>{0, 1}));
}

TEST(ServerTimeline, DisjointVmsKeepSeparateBusySegments) {
  ServerTimeline timeline(basic_server(), 100);
  timeline.place(vm(0, 1, 5));
  timeline.place(vm(1, 10, 15));
  EXPECT_EQ(timeline.busy().size(), 2u);
  EXPECT_EQ(timeline.busy().gaps(),
            (std::vector<Interval>{{6, 9}}));
}

TEST(ServerTimeline, UndoRestoresEverything) {
  ServerTimeline timeline(basic_server(), 100);
  timeline.place(vm(0, 10, 20, 3.0, 2.0));
  const auto busy_before = timeline.busy().intervals();
  const double cpu_before = timeline.max_cpu_usage(1, 100);

  const VmSpec second = vm(1, 15, 40, 2.0, 1.0);
  const auto record = timeline.place(second);
  timeline.undo(record, second);

  EXPECT_EQ(timeline.busy().intervals(), busy_before);
  EXPECT_DOUBLE_EQ(timeline.max_cpu_usage(1, 100), cpu_before);
  EXPECT_DOUBLE_EQ(timeline.max_mem_usage(21, 100), 0.0);
  EXPECT_EQ(timeline.vms(), (std::vector<VmId>{0}));
}

TEST(ServerTimeline, UndoRestoresMergedSegments) {
  ServerTimeline timeline(basic_server(), 100);
  timeline.place(vm(0, 1, 5));
  timeline.place(vm(1, 10, 15));
  // Bridge the two segments, then undo the bridge.
  const VmSpec bridge = vm(2, 4, 12);
  const auto record = timeline.place(bridge);
  EXPECT_EQ(timeline.busy().size(), 1u);
  timeline.undo(record, bridge);
  EXPECT_EQ(timeline.busy().intervals(),
            (std::vector<Interval>{{1, 5}, {10, 15}}));
}

TEST(ServerTimeline, LifoUndoPropertyOnRandomPlacements) {
  Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    ServerTimeline timeline(basic_server(), 200);
    // A couple of permanent residents.
    timeline.place(vm(0, 20, 60, 1.0, 1.0));
    timeline.place(vm(1, 100, 130, 2.0, 2.0));
    const auto busy_before = timeline.busy().intervals();

    // Place a random stack of VMs, then unwind it.
    std::vector<std::pair<ServerTimeline::PlaceRecord, VmSpec>> stack;
    const int pushes = static_cast<int>(rng.uniform_int(1, 6));
    for (int k = 0; k < pushes; ++k) {
      const Time start = static_cast<Time>(rng.uniform_int(1, 180));
      const Time end = static_cast<Time>(
          rng.uniform_int(start, std::min<Time>(200, start + 40)));
      const VmSpec extra = vm(10 + k, start, end, 0.5, 0.5);
      if (!timeline.can_fit(extra)) continue;
      stack.emplace_back(timeline.place(extra), extra);
    }
    while (!stack.empty()) {
      timeline.undo(stack.back().first, stack.back().second);
      stack.pop_back();
    }
    ASSERT_EQ(timeline.busy().intervals(), busy_before) << "trial " << trial;
    ASSERT_DOUBLE_EQ(timeline.max_cpu_usage(1, 19), 0.0);
    ASSERT_DOUBLE_EQ(timeline.max_cpu_usage(61, 99), 0.0);
  }
}

// --- epoch counter (backs core/candidate_scan.h's ScanCache) ---------------

TEST(ServerTimeline, EpochStartsAtZeroAndBumpsOnEveryMutation) {
  ServerTimeline timeline(basic_server(), 100);
  EXPECT_EQ(timeline.epoch(), 0u);

  const VmSpec first = vm(0, 10, 20, 3.0, 2.0);
  timeline.place(first);
  EXPECT_EQ(timeline.epoch(), 1u);

  const VmSpec second = vm(1, 15, 40, 2.0, 1.0);
  const auto record = timeline.place(second);
  EXPECT_EQ(timeline.epoch(), 2u);

  // Undo restores the *state* but advances the epoch — the timeline mutated,
  // so any cached probe against epoch 2 must not be reused.
  timeline.undo(record, second);
  EXPECT_EQ(timeline.epoch(), 3u);
}

TEST(ServerTimeline, ReadsDoNotAdvanceEpoch) {
  ServerTimeline timeline(basic_server(), 100);
  timeline.place(vm(0, 10, 20, 3.0, 2.0));
  const std::uint64_t before = timeline.epoch();
  (void)timeline.can_fit(vm(1, 5, 50, 1.0, 1.0));
  (void)timeline.check_fit(vm(2, 5, 50, 20.0, 1.0));
  (void)timeline.max_cpu_usage(1, 100);
  (void)timeline.busy_time();
  EXPECT_EQ(timeline.epoch(), before);
}

// Property: a probe the O(1) envelope triage decides (quick_fit != kUnknown)
// never touches the memo — no hit, no miss, no entry, no epoch adoption; an
// undecided probe's entry is reused iff the timeline's epoch is unchanged
// since that shape was last probed — and whichever path answers, the probe
// returns exactly what a direct can_fit/incremental_cost evaluation returns.
TEST(ScanCacheProperty, QuickProbesSkipMemoAndEntriesReusedIffEpochUnchanged) {
  Rng rng(123);
  const CostOptions cost_options;
  const auto score = [&](const ServerTimeline& t,
                         const VmSpec& v) { return incremental_cost(t, v, cost_options); };

  for (int trial = 0; trial < 20; ++trial) {
    ServerTimeline timeline(basic_server(), 200);
    // A heavy resident keeps the window peak at 8 CPU, so probes needing
    // more than 2 CPU are envelope-undecided (memo path) while light probes
    // quick-accept; a >10 CPU shape quick-rejects against the 0-usage floor.
    timeline.place(vm(999, 1, 100, 8.0, 1.0));

    ScanCache cache;
    cache.resize(1);

    // Reference model of the slot: the epoch its entries were stored under,
    // and the set of shapes stored. Mirrors the documented invalidation
    // rule, which only undecided probes engage.
    std::optional<std::uint64_t> model_epoch;
    std::unordered_map<VmShape, bool, VmShapeHash> model_shapes;

    // A small pool of repeating shapes so hits actually occur (CPU 1..6
    // spans quick-accepted and undecided; 10.5 always quick-rejects), plus
    // LIFO place/undo mutations interleaved with probes.
    std::vector<VmSpec> shapes;
    for (int s = 0; s < 5; ++s) {
      const Time start = static_cast<Time>(rng.uniform_int(1, 150));
      const Time end =
          static_cast<Time>(rng.uniform_int(start, start + 40));
      shapes.push_back(vm(100 + s, start, end, 1.0 + s * 1.25, 1.0 + s));
    }
    shapes.push_back(vm(106, 10, 40, 10.5, 1.0));  // beyond capacity
    std::vector<std::pair<ServerTimeline::PlaceRecord, VmSpec>> stack;
    int next_id = 0;

    for (int step = 0; step < 300; ++step) {
      const int action = static_cast<int>(rng.uniform_int(0, 9));
      if (action < 6) {  // probe a random repeating shape
        const VmSpec& probe_vm = shapes[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(shapes.size()) - 1))];
        const QuickFit quick = timeline.quick_fit(probe_vm);
        bool expect_hit = false;
        if (quick == QuickFit::kUnknown) {
          if (model_epoch != timeline.epoch()) {
            model_epoch = timeline.epoch();
            model_shapes.clear();
          }
          const VmShape key{probe_vm.demand.cpu, probe_vm.demand.mem,
                            probe_vm.start, probe_vm.end};
          expect_hit = model_shapes.count(key) > 0;
          model_shapes.emplace(key, true);
        }

        const std::int64_t hits_before = cache.hits();
        const std::int64_t misses_before = cache.misses();
        const std::int64_t quick_before = cache.quick_decided();
        const std::optional<double> cached =
            cache.probe(0, timeline, probe_vm, ScanCache::key_of(probe_vm),
                        quick, score);
        if (quick == QuickFit::kUnknown) {
          ASSERT_EQ(cache.hits() - hits_before, expect_hit ? 1 : 0)
              << "trial " << trial << " step " << step;
          ASSERT_EQ(cache.misses() - misses_before, expect_hit ? 0 : 1);
          ASSERT_EQ(cache.quick_decided(), quick_before);
        } else {
          // Envelope-decided: counted as quick, memo untouched.
          ASSERT_EQ(cache.quick_decided() - quick_before, 1)
              << "trial " << trial << " step " << step;
          ASSERT_EQ(cache.hits(), hits_before);
          ASSERT_EQ(cache.misses(), misses_before);
          // The triage verdict itself must agree with can_fit.
          ASSERT_EQ(quick == QuickFit::kFits, timeline.can_fit(probe_vm));
        }

        // Whichever path answered, the value must be the direct
        // recomputation bit-for-bit.
        const std::optional<double> direct =
            timeline.can_fit(probe_vm)
                ? std::optional<double>(score(timeline, probe_vm))
                : std::nullopt;
        ASSERT_EQ(cached.has_value(), direct.has_value());
        if (cached) {
          ASSERT_EQ(*cached, *direct);  // exact, not approximate
        }
      } else if (action < 8 || stack.empty()) {  // place
        const Time start = static_cast<Time>(rng.uniform_int(1, 150));
        const Time end = static_cast<Time>(rng.uniform_int(start, start + 30));
        const VmSpec extra = vm(next_id++, start, end, 0.5, 0.5);
        if (!timeline.can_fit(extra)) continue;
        stack.emplace_back(timeline.place(extra), extra);
      } else {  // undo (LIFO)
        timeline.undo(stack.back().first, stack.back().second);
        stack.pop_back();
      }
    }
    // All three probe paths must have been exercised.
    EXPECT_GT(cache.hits(), 0) << "trial " << trial;
    EXPECT_GT(cache.misses(), 0) << "trial " << trial;
    EXPECT_GT(cache.quick_decided(), 0) << "trial " << trial;
  }
}

// --- quick_fit: the O(1) envelope triage in front of the trees -------------

TEST(QuickFitTriage, DecidesFromWindowEnvelope) {
  ServerTimeline timeline(basic_server(), 100);
  timeline.place(vm(0, 1, 50, 6.0, 2.0));  // peak 6 CPU / 2 MEM, floor 0
  // Peak + demand fits: certain accept without a tree query.
  EXPECT_EQ(timeline.quick_fit(vm(1, 25, 75, 4.0, 1.0)), QuickFit::kFits);
  // Even the emptiest unit lacks spare CPU: certain reject.
  EXPECT_EQ(timeline.quick_fit(vm(2, 60, 90, 10.5, 1.0)),
            QuickFit::kCannotFit);
  // Peak + demand over, floor + demand under: undecided.
  EXPECT_EQ(timeline.quick_fit(vm(3, 60, 90, 5.0, 1.0)), QuickFit::kUnknown);
  // Out of window: certain reject.
  EXPECT_EQ(timeline.quick_fit(vm(4, 90, 101, 1.0, 1.0)),
            QuickFit::kCannotFit);
}

TEST(QuickFitTriage, AgreesWithCanFitOnRandomPlacements) {
  Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    ServerTimeline timeline(basic_server(), 120);
    const int residents = static_cast<int>(rng.uniform_int(0, 6));
    for (int k = 0; k < residents; ++k) {
      const Time start = static_cast<Time>(rng.uniform_int(1, 100));
      const Time end = static_cast<Time>(rng.uniform_int(start, start + 30));
      const VmSpec resident = vm(k, start, end, 1.0 + (k % 3), 1.0 + (k % 4));
      if (timeline.can_fit(resident)) timeline.place(resident);
    }
    for (int probe = 0; probe < 40; ++probe) {
      const Time start = static_cast<Time>(rng.uniform_int(1, 110));
      const Time end = static_cast<Time>(rng.uniform_int(start, start + 40));
      const VmSpec candidate =
          vm(100 + probe, start, end, rng.uniform_double(0.1, 12.0),
             rng.uniform_double(0.1, 12.0));
      const QuickFit quick = timeline.quick_fit(candidate);
      if (quick != QuickFit::kUnknown) {
        ASSERT_EQ(quick == QuickFit::kFits, timeline.can_fit(candidate))
            << "trial " << trial << " probe " << probe;
      }
    }
  }
}

// Boundary cases of the envelope triage, table-driven: exact-capacity fits
// (the <= capacity + kEps comparison at equality), zero-demand VMs, and
// window edges at the horizon and at an advanced base. Each expectation
// pins the QuickFit verdict AND, where decided, its agreement with the
// exact can_fit answer — the same dual contract the SoA envelope sweep
// (core/envelope_store.h) inherits verbatim (tests/test_envelope_scan.cpp).
TEST(QuickFitTriage, BoundaryCasesTableDriven) {
  // basic_server: 10 CPU / 10 GiB. Resident [1,50] at 6 CPU / 2 MEM, so the
  // window envelope is peak (6, 2), floor (0, 0) over horizon 100.
  ServerTimeline timeline(basic_server(), 100);
  timeline.place(vm(0, 1, 50, 6.0, 2.0));

  struct Case {
    const char* why;
    VmSpec candidate;
    QuickFit expected;
  };
  const Case cases[] = {
      {"exact-capacity fit: peak + demand == capacity in both dimensions",
       vm(1, 25, 75, 4.0, 8.0), QuickFit::kFits},
      {"zero-demand VM always quick-fits inside the window",
       vm(2, 1, 100, 0.0, 0.0), QuickFit::kFits},
      {"zero-demand VM past the horizon is still a window reject",
       vm(3, 90, 101, 0.0, 0.0), QuickFit::kCannotFit},
      {"window edge: single unit exactly at the horizon",
       vm(4, 100, 100, 1.0, 1.0), QuickFit::kFits},
      {"window edge: end one past the horizon",
       vm(5, 95, 101, 1.0, 1.0), QuickFit::kCannotFit},
      {"demand over capacity even on the empty floor",
       vm(6, 60, 90, 10.5, 1.0), QuickFit::kCannotFit},
      {"exact-capacity on the floor: floor + demand == capacity stays "
       "undecided (not > capacity + kEps)",
       vm(7, 25, 75, 10.0, 1.0), QuickFit::kUnknown},
      {"peak + demand just over, floor + demand under: undecided",
       vm(8, 60, 90, 4.1, 1.0), QuickFit::kUnknown},
  };
  for (const Case& c : cases) {
    const QuickFit quick = timeline.quick_fit(c.candidate);
    EXPECT_EQ(quick, c.expected) << c.why;
    if (quick != QuickFit::kUnknown) {
      EXPECT_EQ(quick == QuickFit::kFits, timeline.can_fit(c.candidate))
          << c.why << " (decided verdicts must agree with can_fit)";
    }
  }
}

TEST(QuickFitTriage, AdvancedBaseRejectsStartsBehindTheWindow) {
  // A rebuilt (rolling-GC) timeline with base 10: starts behind the base are
  // window rejects, starts exactly at the base are triaged normally.
  ServerTimeline timeline(basic_server(), /*base=*/10, /*horizon=*/100);
  struct Case {
    const char* why;
    VmSpec candidate;
    QuickFit expected;
  };
  const Case cases[] = {
      {"start one behind the base", vm(1, 9, 20, 1.0, 1.0),
       QuickFit::kCannotFit},
      {"start exactly at the base", vm(2, 10, 20, 1.0, 1.0), QuickFit::kFits},
      {"whole window, exact capacity", vm(3, 10, 100, 10.0, 10.0),
       QuickFit::kFits},
      {"whole window, capacity exceeded", vm(4, 10, 100, 10.5, 1.0),
       QuickFit::kCannotFit},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(timeline.quick_fit(c.candidate), c.expected) << c.why;
    EXPECT_EQ(c.expected == QuickFit::kFits, timeline.can_fit(c.candidate))
        << c.why;
  }
}

// --- profiled VMs: equal-demand runs are applied/checked as range ops ------

VmSpec profiled_vm(VmId id, Time start, std::vector<Resources> levels) {
  VmSpec spec;
  spec.id = id;
  spec.type_name = "profiled";
  spec.start = start;
  spec.end = start + static_cast<Time>(levels.size()) - 1;
  spec.set_profile(std::move(levels));
  return spec;
}

TEST(ProfiledTimeline, CoalescedRunsMatchPerUnitSemantics) {
  ServerTimeline timeline(basic_server(), 100);
  // Three runs: [10,12] at (2,1), [13,15] at (6,3), [16,17] at (1,8); the
  // middle run also has a zero-CPU tail to cover the skip-zero-delta path.
  const VmSpec workload = profiled_vm(
      0, 10,
      {{2, 1}, {2, 1}, {2, 1}, {6, 3}, {6, 3}, {6, 3}, {1, 8}, {1, 8},
       {0, 2}, {0, 2}});
  ASSERT_TRUE(timeline.can_fit(workload));
  const auto record = timeline.place(workload);

  // Usage at every unit equals the profile level of that unit's run.
  for (Time t = 10; t <= 19; ++t) {
    const Resources r = workload.demand_at(t);
    EXPECT_DOUBLE_EQ(timeline.cpu_usage_at(t), r.cpu) << "t=" << t;
    EXPECT_DOUBLE_EQ(timeline.mem_usage_at(t), r.mem) << "t=" << t;
  }
  EXPECT_DOUBLE_EQ(timeline.cpu_usage_at(9), 0.0);
  EXPECT_DOUBLE_EQ(timeline.cpu_usage_at(20), 0.0);

  // A stable VM fits against the valleys but not across the (6,3) burst.
  EXPECT_TRUE(timeline.can_fit(vm(1, 16, 30, 5.0, 1.0)));
  EXPECT_FALSE(timeline.can_fit(vm(2, 10, 15, 5.0, 1.0)));

  // A second profiled VM whose burst interleaves with the valleys fits.
  const VmSpec complement = profiled_vm(
      3, 10,
      {{7, 8}, {7, 8}, {7, 8}, {2, 2}, {2, 2}, {2, 2}, {8, 1}, {8, 1},
       {9, 7}, {9, 7}});
  EXPECT_TRUE(timeline.can_fit(complement));
  // check_fit agrees and localizes a violation inside the right run.
  const VmSpec clash = profiled_vm(4, 12, {{1, 1}, {5, 1}, {5, 1}});
  ASSERT_FALSE(timeline.can_fit(clash));
  const FitCheck fit = timeline.check_fit(clash);
  EXPECT_FALSE(fit.ok);
  EXPECT_EQ(fit.reject, FitReject::Cpu);
  EXPECT_EQ(fit.at, 13);  // first unit where 6 (resident) + 5 > 10

  // Undo restores the exact pre-placement state.
  timeline.undo(record, workload);
  for (Time t = 9; t <= 20; ++t) {
    EXPECT_DOUBLE_EQ(timeline.cpu_usage_at(t), 0.0) << "t=" << t;
    EXPECT_DOUBLE_EQ(timeline.mem_usage_at(t), 0.0) << "t=" << t;
  }
}

// --- span-sized timelines: open windows grow their trees on demand ---------

TEST(SpanSizedTimeline, HostsNothingHoldsNoTreesAndGrowsByDoubling) {
  ServerTimeline timeline(basic_server(), /*base=*/5,
                          ServerTimeline::kOpenHorizon);
  EXPECT_TRUE(timeline.open());
  EXPECT_EQ(timeline.resident_units(), 0u);
  EXPECT_EQ(timeline.peak_cpu_usage(), 0.0);
  EXPECT_EQ(timeline.floor_cpu_usage(), 0.0);
  // Any end fits an open window; units past the (empty) span read zero.
  EXPECT_EQ(timeline.quick_fit(vm(0, 5, 1000000)), QuickFit::kFits);
  EXPECT_EQ(timeline.max_cpu_usage(5, 1000), 0.0);
  timeline.place(vm(0, 10, 20, 4.0, 2.0));
  const std::size_t first = timeline.resident_units();
  EXPECT_GE(first, 16u);
  EXPECT_EQ(first & (first - 1), 0u);  // a power of two
  EXPECT_EQ(timeline.span_end(), 5 + static_cast<Time>(first) - 1);
  // A placement inside the span does not grow it; one past it doubles it.
  timeline.place(vm(1, 12, 14, 1.0, 1.0));
  EXPECT_EQ(timeline.resident_units(), first);
  timeline.place(vm(2, 30, timeline.span_end() + 1, 1.0, 1.0));
  EXPECT_EQ(timeline.resident_units(), 2 * first);
  EXPECT_EQ(timeline.cpu_usage_at(15), 4.0);
  EXPECT_EQ(timeline.cpu_usage_at(timeline.span_end() + 7), 0.0);
  // The window envelope includes the zero usage past the span.
  EXPECT_EQ(timeline.peak_cpu_usage(), 5.0);  // vm0 + vm1 over [12, 14]
  EXPECT_EQ(timeline.floor_cpu_usage(), 0.0);
}

// Differential fuzz: a timeline whose span grows on demand answers every
// query exactly like one whose trees cover the whole window from the start,
// across random place / LIFO-undo / query sequences. Demands are multiples
// of 1/4, so every usage sum is exact whatever the tree shape; the full
// window ends one unit past every VM, so both envelopes see a zero unit.
TEST(SpanSizedTimeline, AgreesWithFullWindowOnRandomPlaceUndoQuery) {
  Rng rng(8080);
  const auto quarter = [&](int lo, int hi) {
    return static_cast<double>(rng.uniform_int(lo, hi)) / 4.0;
  };
  for (int trial = 0; trial < 60; ++trial) {
    const Time base = static_cast<Time>(rng.uniform_int(1, 20));
    const Time last = base + static_cast<Time>(rng.uniform_int(20, 600));
    ServerTimeline span(basic_server(), base, ServerTimeline::kOpenHorizon);
    ServerTimeline full(basic_server(), base, last + 1);
    const auto random_vm = [&](VmId id) {
      // Mostly inside the window; sometimes starting behind its base.
      const Time start = static_cast<Time>(
          rng.uniform_int(std::max<Time>(1, base - 3), last));
      const Time end = static_cast<Time>(
          rng.uniform_int(start, std::min<Time>(last, start + 80)));
      if (rng.bernoulli(0.25)) {
        std::vector<Resources> levels;
        for (Time t = start; t <= end; ++t)
          levels.push_back({quarter(0, 44), quarter(0, 24)});
        return profiled_vm(id, start, std::move(levels));
      }
      // Up to 11 units against capacity 10: some VMs violate even where
      // the server is empty, including past the span.
      return vm(id, start, end, quarter(1, 44), quarter(1, 44));
    };
    std::vector<std::pair<ServerTimeline::PlaceRecord, VmSpec>> placed;
    std::vector<ServerTimeline::PlaceRecord> full_records;
    for (int op = 0; op < 150; ++op) {
      const int kind = static_cast<int>(rng.uniform_int(0, 9));
      if (kind < 4) {  // place
        const VmSpec v = random_vm(op);
        ASSERT_EQ(span.can_fit(v), full.can_fit(v)) << trial << "/" << op;
        if (!span.can_fit(v)) continue;
        placed.emplace_back(span.place(v), v);
        full_records.push_back(full.place(v));
      } else if (kind < 6) {  // LIFO undo
        if (placed.empty()) continue;
        span.undo(placed.back().first, placed.back().second);
        full.undo(full_records.back(), placed.back().second);
        placed.pop_back();
        full_records.pop_back();
      } else {  // query
        const VmSpec v = random_vm(1000 + op);
        ASSERT_EQ(span.quick_fit(v), full.quick_fit(v)) << trial << "/" << op;
        ASSERT_EQ(span.can_fit(v), full.can_fit(v)) << trial << "/" << op;
        const FitCheck a = span.check_fit(v);
        const FitCheck b = full.check_fit(v);
        ASSERT_EQ(a.ok, b.ok) << trial << "/" << op;
        ASSERT_EQ(a.reject, b.reject) << trial << "/" << op;
        ASSERT_EQ(a.at, b.at) << trial << "/" << op;
        const Time lo = static_cast<Time>(rng.uniform_int(base, last + 1));
        const Time hi = static_cast<Time>(rng.uniform_int(lo, last + 1));
        ASSERT_EQ(span.max_cpu_usage(lo, hi), full.max_cpu_usage(lo, hi));
        ASSERT_EQ(span.max_mem_usage(lo, hi), full.max_mem_usage(lo, hi));
      }
      ASSERT_EQ(span.peak_cpu_usage(), full.peak_cpu_usage());
      ASSERT_EQ(span.peak_mem_usage(), full.peak_mem_usage());
      ASSERT_EQ(span.floor_cpu_usage(), full.floor_cpu_usage());
      ASSERT_EQ(span.floor_mem_usage(), full.floor_mem_usage());
      ASSERT_LE(span.span_end(),
                std::max<Time>(base + 63, 2 * last - base + 1));
    }
  }
}

TEST(MakeTimelines, OnePerServer) {
  std::vector<ServerSpec> servers{basic_server(0), basic_server(1)};
  const auto timelines = make_timelines(servers, 42);
  ASSERT_EQ(timelines.size(), 2u);
  EXPECT_EQ(timelines[0].horizon(), 42);
  EXPECT_EQ(timelines[1].spec().id, 1);
}

}  // namespace
}  // namespace esva

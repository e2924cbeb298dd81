// P1/P2 — the in-process A/B gates, with a machine-readable artifact.
//
// Four paired gates each time a guarded variant against its reference on
// the same input, and the artifact (BENCH_perf.json) keeps every rep:
//
//   * null_sink — MinIncrementalAllocator::allocate with a null ObsContext
//     vs the same scan with no observability hooks (allocate_uninstrumented)
//     at fig2@--vms; overhead <= 5%.
//   * telemetry — the stream replay with metrics registry, every-tick
//     time-series sampler and energy ledger bound vs the bare replay at
//     fig2@500; overhead <= 5%.
//   * wal — the serve daemon's submit loop journaling every decision
//     (tmpfs, group commit every 32 records) vs the same loop unjournaled at
//     fig2@500; overhead <= 5%.
//   * envelope — the packed EnvelopeStore::classify sweep vs the per-server
//     ServerTimeline::quick_fit loop it replaces at fig2@--vms; speedup
//     >= 1.3x.
//
// Plus the single-thread gate: the null_sink runs' median must beat the
// committed pre-flat-tree baseline by 2x, and the fleet tier, which reports
// a 100k-server scan without a gate. --quick (300 VMs, a 2k-server tier)
// enforces only the null_sink budget; the identity checks (assignments,
// ledger conservation, WAL round trip with exact energy, bit-identical
// envelope verdicts) fail the run in every mode. Exit status 1 on any
// failure.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/registry.h"
#include "cluster/datacenter.h"
#include "cluster/timeline.h"
#include "core/cost_model.h"
#include "core/envelope_store.h"
#include "core/min_incremental.h"
#include "core/streaming.h"
#include "obs/energy_ledger.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "serve/journal.h"
#include "sim/replay.h"
#include "util/cli.h"
#include "workload/arrival_stream.h"
#include "workload/generator.h"
#include "workload/scenarios.h"

namespace {

using namespace esva;

constexpr double kOverheadBudget = 0.05;     ///< null_sink, telemetry, wal
constexpr double kSingleThreadBudget = 2.0;  ///< speedup vs kBaseline
constexpr double kEnvelopeBudget = 1.3;      ///< classify sweep vs quick_fit

/// Compiler barrier: the optimizer must assume `p`'s memory is read here.
void keep(const void* p) { __asm__ __volatile__("" : : "r"(p) : "memory"); }

ProblemInstance instance_for(int num_vms, std::uint64_t seed) {
  Rng rng(seed);
  return fig2_scenario(num_vms, 2.0).instantiate(rng);
}

double time_ms(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

std::string json_array(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", xs[i]);
    out += (i ? std::string(", ") : std::string()) + buf;
  }
  return out + "]";
}

// ---------------------------------------------------------------------------
// The paired measurement every gate runs
// ---------------------------------------------------------------------------

struct PairedRuns {
  std::vector<double> reference_ms;
  std::vector<double> variant_ms;
  /// min over reps of variant_ms[i] / reference_ms[i].
  double best_ratio = kInf;
  /// Report only: the median of the same per-pair ratios.
  double median_ratio = 0.0;
};

/// Runs each variant once untimed, then `reps` timed pairs, alternating
/// which variant goes first so within-pair drift (a frequency step,
/// background load arriving mid-rep) penalizes each side on half the pairs.
///
/// The gates read the best *paired* ratio, not min-vs-min across the run:
/// timing noise on a shared host is one-sided (interrupts, frequency dips)
/// and drifts on the scale of seconds, so the two variants of one pair share
/// a scheduling window while pairs seconds apart do not. The per-pair ratio
/// cancels the drift; the min over pairs discards the pairs a blip landed
/// in. It is a lenient estimator: the median paired ratio, reported beside
/// it, reads several percent higher (ROADMAP item 3).
PairedRuns run_paired(int reps, const std::function<void()>& reference,
                      const std::function<void()>& variant) {
  PairedRuns runs;
  std::vector<double> ratios;
  reference();
  variant();
  for (int rep = 0; rep < reps; ++rep) {
    double reference_ms = 0.0;
    double variant_ms = 0.0;
    if (rep % 2 == 0) {
      reference_ms = time_ms(reference);
      variant_ms = time_ms(variant);
    } else {
      variant_ms = time_ms(variant);
      reference_ms = time_ms(reference);
    }
    runs.reference_ms.push_back(reference_ms);
    runs.variant_ms.push_back(variant_ms);
    ratios.push_back(variant_ms / reference_ms);
    runs.best_ratio = std::min(runs.best_ratio, ratios.back());
  }
  runs.median_ratio = median(ratios);
  return runs;
}

/// One gate's verdict: its runs read against a budget, plus the identity
/// checks that hold in every mode.
struct Gate {
  std::string section;    ///< BENCH_perf.json key
  std::string reference;  ///< label of the reference variant
  std::string variant;    ///< label of the guarded variant
  int num_vms = 0;
  PairedRuns runs;
  /// Speedup gates read reference/variant >= budget; overhead gates read
  /// variant/reference - 1 <= budget.
  bool speedup = false;
  double budget = 0.0;
  bool enforced = false;
  std::vector<std::pair<std::string, bool>> checks;
  /// Report-only values, as rendered JSON.
  std::vector<std::pair<std::string, std::string>> facts;

  double reading() const {
    return speedup ? 1.0 / runs.best_ratio : runs.best_ratio - 1.0;
  }
  bool within_budget() const {
    return !enforced ||
           (speedup ? reading() >= budget : reading() <= budget);
  }
  bool checks_hold() const {
    return std::all_of(checks.begin(), checks.end(),
                       [](const auto& check) { return check.second; });
  }
  bool pass() const { return within_budget() && checks_hold(); }
};

void print_gate(const Gate& gate) {
  std::printf("  %-14s %8.3f ms (median)\n", gate.reference.c_str(),
              median(gate.runs.reference_ms));
  std::printf("  %-14s %8.3f ms (median)  -> ", gate.variant.c_str(),
              median(gate.runs.variant_ms));
  if (gate.speedup)
    std::printf("speedup %.2fx (best paired ratio, budget >= %.1fx",
                gate.reading(), gate.budget);
  else
    std::printf("overhead %+.2f%% (best paired ratio, budget <= %.0f%%",
                100.0 * gate.reading(), 100.0 * gate.budget);
  std::printf(", %s) %s\n", gate.enforced ? "enforced" : "not enforced",
              gate.within_budget() ? "OK" : "FAIL");
  std::printf("  median paired ratio %.3f (report only)\n",
              gate.runs.median_ratio);
  for (const auto& [name, value] : gate.facts)
    std::printf("  %s: %s\n", name.c_str(), value.c_str());
  for (const auto& [name, ok] : gate.checks)
    std::printf("  %s: %s\n", name.c_str(), ok ? "yes" : "NO (BUG)");
}

void write_gate(std::ostream& out, const Gate& gate) {
  out << "  \"" << gate.section << "\": {\n"
      << "    \"num_vms\": " << gate.num_vms << ",\n"
      << "    \"reference\": \"" << gate.reference << "\",\n"
      << "    \"variant\": \"" << gate.variant << "\",\n"
      << "    \"reference_ms\": " << json_array(gate.runs.reference_ms)
      << ",\n"
      << "    \"variant_ms\": " << json_array(gate.runs.variant_ms) << ",\n"
      << "    \"median_reference_ms\": " << median(gate.runs.reference_ms)
      << ",\n"
      << "    \"median_variant_ms\": " << median(gate.runs.variant_ms)
      << ",\n"
      << "    \"best_paired_ratio\": " << gate.runs.best_ratio << ",\n"
      << "    \"median_paired_ratio\": " << gate.runs.median_ratio << ",\n"
      << "    \"" << (gate.speedup ? "speedup" : "overhead")
      << "\": " << gate.reading() << ",\n"
      << "    \"budget\": " << gate.budget << ",\n"
      << "    \"enforced\": " << (gate.enforced ? "true" : "false") << ",\n";
  for (const auto& [name, value] : gate.facts)
    out << "    \"" << name << "\": " << value << ",\n";
  for (const auto& [name, ok] : gate.checks)
    out << "    \"" << name << "\": " << (ok ? "true" : "false") << ",\n";
  out << "    \"pass\": " << (gate.pass() ? "true" : "false") << "\n  },\n";
}

// ---------------------------------------------------------------------------
// null_sink: the allocator's observability hooks, priced
// ---------------------------------------------------------------------------

/// MinIncrementalAllocator::allocate minus the observability hooks, the
/// policy interface and the engine: ScanPolicy's untraced scan (envelope
/// triage, segment-tree can_fit only on kUnknown, Eq. 17 arg-min with ties
/// to the lowest index) on run_batch's timeline work — open, span-sized
/// timelines in a ClusterState whose frontier follows the start times.
Allocation allocate_uninstrumented(const ProblemInstance& problem) {
  Allocation alloc;
  alloc.assignment.assign(problem.num_vms(), kNoServer);
  ClusterState cluster(problem.servers, /*initial_horizon=*/0);
  const std::vector<ServerTimeline>& timelines = cluster.timelines();
  std::vector<std::uint8_t> verdicts(timelines.size());
  for (std::size_t j : ordered_indices(problem, VmOrder::ByStartTime)) {
    const VmSpec& vm = problem.vms[j];
    cluster.advance_to(vm.start);
    cluster.ensure_horizon(vm.end);
    cluster.envelopes().classify(EnvelopeStore::probe_of(vm),
                                 verdicts.data());
    ServerId best_server = kNoServer;
    Energy best_delta = kInf;
    for (std::size_t i = 0; i < timelines.size(); ++i) {
      const auto verdict = static_cast<QuickFit>(verdicts[i]);
      if (verdict == QuickFit::kCannotFit) continue;
      if (verdict == QuickFit::kUnknown && !timelines[i].can_fit(vm)) continue;
      const Energy delta = incremental_cost(timelines[i], vm);
      if (delta < best_delta) {
        best_delta = delta;
        best_server = static_cast<ServerId>(i);
      }
    }
    if (best_server == kNoServer) continue;
    cluster.place(static_cast<std::size_t>(best_server), vm);
    alloc.assignment[j] = best_server;
  }
  return alloc;
}

/// Enforced in --quick too: it is the CI guard that the null-sink path adds
/// no work to the scan.
Gate measure_null_sink(int num_vms, int reps) {
  Gate gate;
  gate.section = "null_sink";
  gate.reference = "uninstrumented";
  gate.variant = "null sink";
  gate.num_vms = num_vms;
  gate.budget = kOverheadBudget;
  gate.enforced = true;
  const ProblemInstance problem = instance_for(num_vms, 42);
  std::printf("measuring null-sink observability overhead (%d VMs)...\n",
              num_vms);

  Allocation reference;
  Allocation instrumented;
  // A ~2-5% effect needs more pairs than a 2x one.
  gate.runs = run_paired(
      std::max(reps, 11),
      [&] { reference = allocate_uninstrumented(problem); },
      [&] {
        MinIncrementalAllocator allocator;
        Rng rng(7);
        instrumented = allocator.allocate(problem, rng);
      });
  gate.checks.emplace_back("assignments_match",
                           reference.assignment == instrumented.assignment);
  print_gate(gate);
  return gate;
}

// ---------------------------------------------------------------------------
// Single-thread speedup vs the committed pre-optimization baselines
// ---------------------------------------------------------------------------

/// min-incremental fig2 medians (ms) from the BENCH_perf.json committed
/// before the flat-segment-tree / spare-capacity-pruning kernel landed.
/// Measured on the CI container class; the gate demands a margin (2x) far
/// above machine noise.
struct BaselinePoint {
  int num_vms;
  double median_ms;
};
constexpr BaselinePoint kBaseline[] = {
    {100, 1.03396}, {500, 61.1332}, {1000, 266.366}};

struct SingleThreadGate {
  int num_vms = 0;
  double baseline_ms = 0.0;  ///< 0 when no baseline exists for num_vms
  double measured_ms = 0.0;
  double speedup = 0.0;
  bool enforced = false;
  bool pass = true;
};

/// Reads the null_sink gate's allocator runs: they time exactly the
/// computation the baseline measured (fig2@num_vms, instance seed 42,
/// Rng(7), MinIncrementalAllocator::allocate).
SingleThreadGate check_single_thread(const Gate& null_sink, bool quick) {
  SingleThreadGate gate;
  gate.num_vms = null_sink.num_vms;
  for (const BaselinePoint& b : kBaseline)
    if (b.num_vms == gate.num_vms) gate.baseline_ms = b.median_ms;
  gate.measured_ms = median(null_sink.runs.variant_ms);
  if (gate.baseline_ms > 0 && gate.measured_ms > 0)
    gate.speedup = gate.baseline_ms / gate.measured_ms;
  gate.enforced = !quick && gate.baseline_ms > 0 && gate.measured_ms > 0;
  gate.pass = !gate.enforced || gate.speedup >= kSingleThreadBudget;
  std::printf("single-thread vs committed baseline (n=%d): %.2f ms vs "
              "%.2f ms -> %.2fx (budget %.1fx, %s) %s\n",
              gate.num_vms, gate.measured_ms, gate.baseline_ms, gate.speedup,
              kSingleThreadBudget,
              gate.enforced ? "enforced" : "not enforced (no baseline or --quick)",
              gate.pass ? "OK" : "FAIL");
  return gate;
}

// ---------------------------------------------------------------------------
// envelope: the packed classify() sweep vs the AoS quick_fit loop
// ---------------------------------------------------------------------------

/// Every fig2 VM probed against the fully loaded fleet, both ways. The ratio
/// is what the SoA layout buys: one contiguous vectorized sweep vs one
/// pointer-chasing envelope read per server.
Gate measure_envelope(int num_vms, int reps, bool quick) {
  Gate gate;
  gate.section = "envelope";
  gate.reference = "quick_fit loop";
  gate.variant = "classify sweep";
  gate.num_vms = num_vms;
  gate.speedup = true;
  gate.budget = kEnvelopeBudget;
  gate.enforced = !quick;
  const ProblemInstance problem = instance_for(num_vms, 42);
  std::printf("measuring SoA envelope triage (%d VMs x %zu servers)...\n",
              num_vms, problem.servers.size());

  // A loaded fleet: replay the min-incremental assignment so the envelopes
  // carry realistic peaks/floors, not empty-timeline trivia.
  Rng seed_rng(7);
  const Allocation loaded =
      make_allocator("min-incremental")->allocate(problem, seed_rng);
  ClusterState cluster(problem.servers, problem.horizon);
  for (const std::size_t j : ordered_indices(problem, VmOrder::ByStartTime)) {
    if (loaded.assignment[j] == kNoServer) continue;
    cluster.place(static_cast<std::size_t>(loaded.assignment[j]),
                  problem.vms[j]);
  }

  const std::size_t n = cluster.num_servers();
  const std::vector<ServerTimeline>& timelines = cluster.timelines();
  std::vector<std::uint8_t> sweep_verdicts(n);
  std::vector<std::uint8_t> loop_verdicts(n);
  gate.runs = run_paired(
      reps,
      [&] {
        for (const VmSpec& vm : problem.vms) {
          for (std::size_t i = 0; i < n; ++i)
            loop_verdicts[i] =
                static_cast<std::uint8_t>(timelines[i].quick_fit(vm));
          keep(loop_verdicts.data());
        }
      },
      [&] {
        for (const VmSpec& vm : problem.vms) {
          cluster.envelopes().classify(EnvelopeStore::probe_of(vm),
                                       sweep_verdicts.data());
          keep(sweep_verdicts.data());
        }
      });

  bool verdicts_match = true;
  for (const VmSpec& vm : problem.vms) {
    cluster.envelopes().classify(EnvelopeStore::probe_of(vm),
                                 sweep_verdicts.data());
    for (std::size_t i = 0; i < n; ++i)
      if (sweep_verdicts[i] !=
          static_cast<std::uint8_t>(timelines[i].quick_fit(vm)))
        verdicts_match = false;
  }
  gate.checks.emplace_back("verdicts_match", verdicts_match);
  print_gate(gate);
  return gate;
}

// ---------------------------------------------------------------------------
// telemetry: the full collector stack vs the bare replay
// ---------------------------------------------------------------------------

/// fig2@num_vms replay, bare vs with the metrics registry (histogram-backed
/// submit timer), per-tick time-series sampler and energy ledger bound.
Gate measure_telemetry(int num_vms, int reps, bool quick) {
  Gate gate;
  gate.section = "telemetry";
  gate.reference = "bare replay";
  gate.variant = "full telemetry";
  gate.num_vms = num_vms;
  gate.budget = kOverheadBudget;
  gate.enforced = !quick;
  const ProblemInstance problem = instance_for(num_vms, 42);
  std::printf("measuring telemetry stack (%d VMs, sampler every tick + "
              "histogram + ledger)...\n",
              num_vms);

  const auto run = [&](bool telemetry, ReplayReport& out_report,
                       EnergyLedger* ledger, std::size_t* samples) {
    AllocatorPtr allocator = make_allocator("min-incremental");
    std::unique_ptr<PlacementPolicy> policy = allocator->make_policy();
    Rng rng(7);
    VectorArrivalStream arrivals(problem.vms);
    MetricsRegistry metrics;
    TimeSeriesOptions ts_options;
    ts_options.every = 1;
    ts_options.capacity = 0;
    TimeSeriesSampler sampler(ts_options);
    ReplayOptions options;
    if (telemetry) {
      options.obs.metrics = &metrics;
      options.timeseries = &sampler;
      options.ledger = ledger;
    }
    out_report = replay_stream(arrivals, problem.servers, *policy, rng,
                               options);
    if (samples) *samples = sampler.size();
  };

  ReplayReport plain;
  ReplayReport full;
  EnergyLedger ledger;
  std::size_t samples = 0;
  gate.runs = run_paired(
      std::max(reps, 7), [&] { run(false, plain, nullptr, nullptr); },
      [&] {
        ledger.clear();
        run(true, full, &ledger, &samples);
      });
  gate.facts.emplace_back("samples", std::to_string(samples));
  gate.facts.emplace_back("ledger_entries", std::to_string(ledger.size()));
  gate.facts.emplace_back("ledger_total", std::to_string(ledger.total()));
  gate.facts.emplace_back("engine_total", std::to_string(full.total_energy));
  gate.checks.emplace_back("assignments_match",
                           plain.assignment == full.assignment &&
                               plain.total_energy == full.total_energy);
  gate.checks.emplace_back("conserves", ledger.conserves(full.total_energy));
  print_gate(gate);
  return gate;
}

// ---------------------------------------------------------------------------
// wal: the serve daemon's journaled submit loop vs the same loop unjournaled
// ---------------------------------------------------------------------------

/// The daemon's submit path minus the socket and JSON wire, with and
/// without the journal: place in arrival order, journal each decision after
/// the engine applied it (encode_place_record + WalWriter group commit at
/// sync_every=32 — the fsync-batched configuration; the daemon's default of
/// 1 buys per-record durability instead of throughput), drain. Both sides
/// run the same engine loop, so the ratio prices only encoding, write and
/// fsync. The journal lands on tmpfs (/dev/shm, falling back to TMPDIR) so
/// the gate measures the WAL code path, not a disk. The journal must read
/// back through the real trace loader to the unjournaled run's assignment,
/// and both runs' total energy must agree exactly.
Gate measure_wal(int num_vms, int reps, bool quick) {
  Gate gate;
  gate.section = "wal";
  gate.reference = "unjournaled";
  gate.variant = "journaled";
  gate.num_vms = num_vms;
  gate.budget = kOverheadBudget;
  gate.enforced = !quick;
  const ProblemInstance problem = instance_for(num_vms, 42);
  const std::vector<std::size_t> order = order_by_start(problem.vms);
  constexpr int kSyncEvery = 32;

  const bool tmpfs = ::access("/dev/shm", W_OK) == 0;
  std::string journal_dir = "/dev/shm";
  if (!tmpfs) {
    const char* tmpdir = std::getenv("TMPDIR");
    journal_dir = tmpdir && *tmpdir ? tmpdir : "/tmp";
  }
  const std::string journal_path =
      journal_dir + "/esva-bench-" + std::to_string(::getpid()) + ".wal";
  std::printf("measuring WAL durability cost (%d VMs, journal on %s, fsync "
              "every %d)...\n",
              num_vms, journal_dir.c_str(), kSyncEvery);

  // The engine serve::Daemon runs, with its default options.
  const auto run = [&](bool journal, std::vector<ServerId>& assignment,
                       Energy& energy) {
    AllocatorPtr allocator = make_allocator("min-incremental");
    std::unique_ptr<PlacementPolicy> policy = allocator->make_policy();
    Rng rng(7);
    PlacementEngine engine(problem.servers, *policy, rng,
                           serving_engine_options());
    std::unique_ptr<serve::WalWriter> wal;
    if (journal) {
      ::unlink(journal_path.c_str());
      serve::WalHeader header;
      header.allocator = "min-incremental";
      header.seed = 7;
      header.num_servers = problem.num_servers();
      wal = std::make_unique<serve::WalWriter>(journal_path, header,
                                               kSyncEvery);
    }
    assignment.assign(problem.vms.size(), kNoServer);
    std::uint64_t seq = 1;
    for (const std::size_t j : order) {
      const VmSpec& vm = problem.vms[j];
      const PlacementDecision decision = engine.submit(vm);
      assignment[static_cast<std::size_t>(vm.id)] = decision.server;
      if (wal)
        wal->append(serve::encode_place_record(seq++, "min-incremental", vm,
                                               decision,
                                               engine.total_energy()));
    }
    engine.finish_stream();
    if (wal) wal->sync();
    energy = engine.total_energy();
  };

  std::vector<ServerId> bare_assignment;
  std::vector<ServerId> wal_assignment;
  Energy bare_energy = 0.0;
  Energy wal_energy = 0.0;
  gate.runs = run_paired(
      std::max(reps, 13), [&] { run(false, bare_assignment, bare_energy); },
      [&] { run(true, wal_assignment, wal_energy); });

  // Retries are off, so submit decisions are final and last-write-wins
  // folding of the journal must reproduce the unjournaled assignment.
  const serve::WalFile journal = serve::read_wal(journal_path);
  std::size_t journal_bytes = 0;
  {
    std::ifstream in(journal_path, std::ios::binary | std::ios::ate);
    if (in) journal_bytes = static_cast<std::size_t>(in.tellg());
  }
  const std::vector<ServerId> replayed = assignment_from_trace(
      decisions_from_wal(journal.records), problem.vms.size());
  ::unlink(journal_path.c_str());

  gate.facts.emplace_back("journal_dir", "\"" + journal_dir + "\"");
  gate.facts.emplace_back("tmpfs", tmpfs ? "true" : "false");
  gate.facts.emplace_back("sync_every", std::to_string(kSyncEvery));
  gate.facts.emplace_back("journal_records",
                          std::to_string(journal.records.size()));
  gate.facts.emplace_back("journal_bytes", std::to_string(journal_bytes));
  gate.checks.emplace_back("assignments_match", replayed == bare_assignment &&
                                                    replayed == wal_assignment);
  gate.checks.emplace_back("energy_match", wal_energy == bare_energy);
  print_gate(gate);
  return gate;
}

// ---------------------------------------------------------------------------
// Fleet tier: the candidate scan at 100k servers (report only)
// ---------------------------------------------------------------------------

struct FleetTier {
  int num_servers = 0;
  int num_vms = 0;
  double median_ms = 0.0;
  double requests_per_sec = 0.0;
  double submit_p99_ms = 0.0;
  double hist_p99_ms = 0.0;
  std::size_t peak_resident_time_units = 0;
};

/// The fleet tier uses lowest-idle-power: a representative scan policy with
/// an O(1) score, so the measurement isolates the scan machinery (triage
/// sweep + tree fallback) rather than the Eq. 17 scoring arithmetic the fig2
/// gates already cover. The deterministic round-robin fleet
/// (make_scaled_fleet) keeps the numbers comparable across hosts.
FleetTier measure_fleet_tier(int num_servers, int num_vms, int reps) {
  FleetTier tier;
  tier.num_servers = num_servers;
  tier.num_vms = num_vms;

  WorkloadConfig config;
  config.num_vms = num_vms;
  config.mean_interarrival = 0.5;
  config.mean_duration = 50.0;
  config.vm_types = all_vm_types();
  Rng rng(42);
  ProblemInstance problem =
      make_problem(generate_workload(config, rng),
                   make_scaled_fleet(num_servers, all_server_types(), 1.0));

  std::printf("measuring fleet scan (%d servers, %d VMs, lowest-idle-power "
              "stream)...\n",
              num_servers, num_vms);
  std::vector<double> times;
  ReplayReport report;
  for (int rep = 0; rep < reps; ++rep) {
    times.push_back(time_ms([&] {
      std::unique_ptr<PlacementPolicy> policy =
          make_allocator("lowest-idle-power")->make_policy();
      Rng replay_rng(7);
      VectorArrivalStream arrivals(problem.vms);
      report = replay_stream(arrivals, problem.servers, *policy, replay_rng,
                             ReplayOptions{});
    }));
  }
  tier.median_ms = median(times);
  tier.requests_per_sec = report.requests_per_sec;
  tier.submit_p99_ms = report.latency.p99_ms;
  tier.hist_p99_ms = report.latency.hist_p99_ms;
  tier.peak_resident_time_units = report.peak_resident_time_units;
  std::printf("  %10.2f ms  %8.0f req/s  p99 %.4f ms  peak resident %zu "
              "units\n",
              tier.median_ms, tier.requests_per_sec, tier.submit_p99_ms,
              tier.peak_resident_time_units);
  return tier;
}

int run_perf_report(const std::string& out_path, int num_vms, int reps,
                    bool quick) {
  const Gate null_sink = measure_null_sink(num_vms, reps);
  const SingleThreadGate single_thread = check_single_thread(null_sink, quick);
  const Gate envelope = measure_envelope(num_vms, reps, quick);
  // Telemetry and WAL run at the fig2@500 acceptance point in full mode;
  // --quick keeps the smoke-test scenario size.
  const Gate telemetry = measure_telemetry(quick ? num_vms : 500, reps, quick);
  const Gate wal = measure_wal(quick ? num_vms : 500, reps, quick);
  // --quick keeps a smoke-scale tier small enough for the CI guard job.
  const FleetTier fleet =
      quick ? measure_fleet_tier(2000, 400, std::max(2, reps / 2))
            : measure_fleet_tier(100000, 600, std::max(2, reps / 4));
  const Gate* gates[] = {&null_sink, &envelope, &telemetry, &wal};

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n  \"scenario\": {\"family\": \"fig2\", \"num_vms\": " << num_vms
      << ", \"mean_interarrival\": 2.0, \"seed\": 42},\n";
  for (const Gate* gate : gates) write_gate(out, *gate);
  out << "  \"single_thread\": {\n"
      << "    \"allocator\": \"min-incremental\",\n"
      << "    \"num_vms\": " << single_thread.num_vms << ",\n"
      << "    \"baseline_ms\": " << single_thread.baseline_ms << ",\n"
      << "    \"measured_ms\": " << single_thread.measured_ms << ",\n"
      << "    \"speedup_vs_baseline\": " << single_thread.speedup << ",\n"
      << "    \"budget\": " << kSingleThreadBudget << ",\n"
      << "    \"enforced\": " << (single_thread.enforced ? "true" : "false")
      << ",\n"
      << "    \"pass\": " << (single_thread.pass ? "true" : "false")
      << "\n  },\n";
  out << "  \"fleet\": {\n"
      << "    \"allocator\": \"lowest-idle-power\",\n"
      << "    \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n"
      << "    \"num_servers\": " << fleet.num_servers
      << ", \"num_vms\": " << fleet.num_vms
      << ", \"median_ms\": " << fleet.median_ms
      << ", \"requests_per_sec\": " << fleet.requests_per_sec
      << ", \"submit_p99_ms\": " << fleet.submit_p99_ms
      << ", \"hist_p99_ms\": " << fleet.hist_p99_ms
      << ", \"peak_resident_time_units\": " << fleet.peak_resident_time_units
      << "\n  }\n";
  out << "}\n";
  std::printf("wrote %s\n", out_path.c_str());

  int status = 0;
  for (const Gate* gate : gates) {
    for (const auto& [name, ok] : gate->checks) {
      if (ok) continue;
      std::fprintf(stderr, "FAIL: %s identity check %s diverged\n",
                   gate->section.c_str(), name.c_str());
      status = 1;
    }
    if (!gate->within_budget()) {
      if (gate->speedup)
        std::fprintf(stderr, "FAIL: %s speedup %.2fx below budget %.1fx\n",
                     gate->section.c_str(), gate->reading(), gate->budget);
      else
        std::fprintf(stderr, "FAIL: %s overhead %.2f%% exceeds budget %.0f%%\n",
                     gate->section.c_str(), 100.0 * gate->reading(),
                     100.0 * gate->budget);
      status = 1;
    }
  }
  if (!single_thread.pass) {
    std::fprintf(stderr,
                 "FAIL: single-thread speedup %.2fx vs committed baseline "
                 "below budget %.1fx (n=%d)\n",
                 single_thread.speedup, kSingleThreadBudget,
                 single_thread.num_vms);
    status = 1;
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  esva::CliParser parser(
      "bench/perf_allocators — in-process A/B gates (null-sink, telemetry, "
      "WAL, envelope triage, single-thread) and the 100k-server fleet tier, "
      "written to a BENCH_perf.json artifact");
  parser.add_string("out", "BENCH_perf.json", "JSON artifact output path");
  parser.add_int("vms", 1000,
                 "VM count of the null-sink, single-thread and envelope "
                 "gates (single-thread baselines exist for 100/500/1000)");
  parser.add_int("reps", 7, "timed pairs per gate (each gate has a floor)");
  parser.add_bool("quick",
                  "300-VM smoke run, 5 reps, 2k-server fleet tier; only the "
                  "null-sink budget is enforced");
  if (!parser.parse(argc, argv)) return parser.parse_error() ? 1 : 0;

  int num_vms = static_cast<int>(parser.get_int("vms"));
  int reps = static_cast<int>(parser.get_int("reps"));
  const bool quick = parser.get_bool("quick");
  if (quick) {
    num_vms = 300;
    reps = 5;
  }
  return run_perf_report(parser.get_string("out"), num_vms, reps, quick);
}

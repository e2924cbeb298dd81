// Quickstart: build a tiny datacenter by hand, allocate with the paper's
// heuristic, and read the energy report. Mirrors README's "5-minute tour".
//
//   $ ./build/examples/quickstart

#include <cstdio>

#include "baselines/ffps.h"
#include "cluster/catalog.h"
#include "core/min_incremental.h"
#include "sim/engine.h"
#include "sim/metrics.h"
#include "util/table.h"

int main() {
  using namespace esva;

  // 1. A fleet: two small blades and one large box (Table II types).
  std::vector<ServerSpec> servers{
      make_server(all_server_types()[0], 0, /*transition_time=*/1.0),
      make_server(all_server_types()[0], 1, 1.0),
      make_server(all_server_types()[4], 2, 1.0),
  };

  // 2. Six VM requests with start/finish times (minutes) and Table I demands.
  const auto& types = all_vm_types();
  auto request = [&](VmId id, const char* type_name, Time start, Time end) {
    for (const VmType& t : types) {
      if (t.name == type_name) {
        VmSpec vm;
        vm.id = id;
        vm.type_name = t.name;
        vm.demand = t.demand;
        vm.start = start;
        vm.end = end;
        return vm;
      }
    }
    std::fprintf(stderr, "unknown type %s\n", type_name);
    std::exit(1);
  };
  std::vector<VmSpec> vms{
      request(0, "m1.small", 1, 60),    request(1, "m1.large", 10, 90),
      request(2, "c1.medium", 15, 45),  request(3, "m1.xlarge", 50, 170),
      request(4, "m2.xlarge", 80, 200), request(5, "m1.medium", 160, 260),
  };

  const ProblemInstance problem = make_problem(std::move(vms), std::move(servers));
  std::printf("instance: %zu VMs on %zu servers, horizon %d min\n\n",
              problem.num_vms(), problem.num_servers(), problem.horizon);

  // 3. Allocate with the paper's heuristic and with the FFPS baseline.
  Rng rng(42);
  MinIncrementalAllocator heuristic;
  const Allocation ours = heuristic.allocate(problem, rng);
  FfpsAllocator ffps;
  const Allocation baseline = ffps.allocate(problem, rng);

  // 4. Compare energy (Eq. 17 accounting, optimal power-state policy).
  TextTable table;
  table.set_header({"vm", "type", "interval", "ours -> server",
                    "ffps -> server"});
  for (std::size_t j = 0; j < problem.num_vms(); ++j) {
    const VmSpec& vm = problem.vms[j];
    table.add_row({std::to_string(vm.id), vm.type_name,
                   '[' + std::to_string(vm.start) + ',' +
                       std::to_string(vm.end) + "]",
                   std::to_string(ours.assignment[j]),
                   std::to_string(baseline.assignment[j])});
  }
  std::printf("%s\n", table.render().c_str());

  const CostReport ours_cost = evaluate_cost(problem, ours);
  const CostReport ffps_cost = evaluate_cost(problem, baseline);
  std::printf("energy (watt-minutes): ours %.0f vs ffps %.0f -> reduction %s\n",
              ours_cost.total(), ffps_cost.total(),
              fmt_percent(energy_reduction_ratio(ffps_cost.total(),
                                                 ours_cost.total()))
                  .c_str());

  // 5. Cross-check with the discrete-event simulator.
  const SimulationResult simulated = SimulationEngine(problem, ours).run();
  std::printf("simulator cross-check: %.0f watt-minutes (run %.0f, idle %.0f,"
              " transitions %.0f)\n",
              simulated.total_energy(), simulated.total.run,
              simulated.total.idle, simulated.total.transition);
  return 0;
}

// Quickstart: generate a small Cirne workload, run static backfill and
// SD-Policy on the same 64-node machine, and print the side-by-side metrics
// the paper reports (makespan, response, slowdown, energy).
//
//   ./quickstart [--jobs=N] [--nodes=N] [--seed=N]
#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "api/experiment.h"
#include "api/simulation.h"
#include "util/cli.h"
#include "util/table.h"
#include "workload/cirne.h"
#include "workload/workload_stats.h"

int main(int argc, char** argv) try {
  using namespace sdsched;
  const CliArgs args(argc, argv);

  CirneConfig wl;
  wl.n_jobs = static_cast<int>(args.get_int("jobs", 800));
  wl.system_nodes = static_cast<int>(args.get_int("nodes", 64));
  wl.cores_per_node = 48;
  wl.max_job_nodes = std::max(1, wl.system_nodes / 8);
  wl.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  Workload workload = generate_cirne(wl);
  std::fputs(to_string(characterize(workload)).c_str(), stdout);

  MachineConfig machine;
  machine.nodes = wl.system_nodes;
  machine.node.sockets = 2;
  machine.node.cores_per_socket = 24;

  // Baseline: plain backfill. Policy: SD with the dynamic cut-off.
  SimulationReport base = Simulation(baseline_config(machine), workload).run();
  SimulationReport sd =
      Simulation(sd_config(machine, CutoffConfig::dynamic_avg()), workload).run();
  const NormalizedMetrics norm = normalize(sd.summary, base.summary);

  AsciiTable table({"metric", "static backfill", "SD-Policy", "SD / static"});
  table.add_row({"makespan", format_duration(base.summary.makespan),
                 format_duration(sd.summary.makespan), AsciiTable::num(norm.makespan)});
  table.add_row({"avg response (s)", AsciiTable::num(base.summary.avg_response, 0),
                 AsciiTable::num(sd.summary.avg_response, 0),
                 AsciiTable::num(norm.avg_response)});
  table.add_row({"avg slowdown", AsciiTable::num(base.summary.avg_slowdown, 1),
                 AsciiTable::num(sd.summary.avg_slowdown, 1),
                 AsciiTable::num(norm.avg_slowdown)});
  table.add_row({"avg wait (s)", AsciiTable::num(base.summary.avg_wait, 0),
                 AsciiTable::num(sd.summary.avg_wait, 0), AsciiTable::num(norm.avg_wait)});
  table.add_row({"energy (kWh)", AsciiTable::num(base.summary.energy_kwh, 1),
                 AsciiTable::num(sd.summary.energy_kwh, 1), AsciiTable::num(norm.energy)});
  table.add_row({"utilization", AsciiTable::pct(base.summary.utilization - 0.0),
                 AsciiTable::pct(sd.summary.utilization - 0.0), ""});
  table.print();

  std::printf("\nSD-Policy scheduled %llu jobs with malleability (%llu mates shrunk)\n",
              static_cast<unsigned long long>(sd.summary.guests),
              static_cast<unsigned long long>(sd.summary.mates));
  return 0;
} catch (const std::invalid_argument& e) {
  // A malformed flag (--jobs=abc) or an impossible machine (--nodes=0) is a
  // usage error, not a crash.
  std::fprintf(stderr, "%s: %s\n", "quickstart", e.what());
  return 2;
}

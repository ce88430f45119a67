// maxsd_tuning: the workflow a system administrator would follow to pick
// MAX_SLOWDOWN for their site (paper §4.1): sweep static cut-offs and the
// dynamic DynAVGSD on a site-like workload, inspect the slowdown/response
// trade-off, and check the fairness impact on mates.
//
//   ./maxsd_tuning [--jobs=N] [--nodes=N] [--seed=N]
#include <cstdio>
#include <stdexcept>

#include "api/experiment.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/cirne.h"

int main(int argc, char** argv) try {
  using namespace sdsched;
  const CliArgs args(argc, argv);

  CirneConfig wl;
  wl.n_jobs = static_cast<int>(args.get_int("jobs", 600));
  wl.system_nodes = static_cast<int>(args.get_int("nodes", 64));
  wl.cores_per_node = 48;
  wl.max_job_nodes = wl.system_nodes / 8;
  wl.seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  const Workload workload = generate_cirne(wl);

  MachineConfig machine;
  machine.nodes = wl.system_nodes;
  machine.node = NodeConfig{2, 24};
  const PaperWorkload pw{"tuning", workload, machine};

  const SimulationReport base = run_single(pw, baseline_config(machine));
  std::printf("baseline (static backfill): avg slowdown %.1f, avg response %.0fs\n\n",
              base.summary.avg_slowdown, base.summary.avg_response);

  AsciiTable table({"cut-off", "avg slowdown", "avg response", "p95 mate slowdown",
                    "guests", "mates"});
  for (const auto& variant : maxsd_sweep()) {
    const SimulationReport report = run_single(pw, sd_config(machine, variant.cutoff));
    // The administrator's fairness check: how badly do the *mates* end up?
    std::vector<double> mate_slowdowns;
    for (const auto& record : report.records) {
      if (record.was_mate) mate_slowdowns.push_back(record.slowdown());
    }
    table.add_row({variant.label, AsciiTable::num(report.summary.avg_slowdown, 1),
                   AsciiTable::num(report.summary.avg_response, 0),
                   AsciiTable::num(percentile_of(std::move(mate_slowdowns), 0.95), 1),
                   std::to_string(report.summary.guests),
                   std::to_string(report.summary.mates)});
  }
  table.print();
  std::printf(
      "\nreading: low cut-offs protect mates (low p95) but start fewer guests;\n"
      "high cut-offs chase system averages at some mates' expense. The paper\n"
      "settled on MAXSD 10 for CEA-Curie and notes DynAVGSD adapts by itself.\n");
  return 0;
} catch (const std::invalid_argument& e) {
  // A malformed flag (--jobs=abc) is a usage error, not a crash.
  std::fprintf(stderr, "%s: %s\n", "maxsd_tuning", e.what());
  return 2;
}

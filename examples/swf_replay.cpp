// swf_replay: replay a Standard Workload Format trace (e.g. the real
// RICC-2010 or CEA-Curie logs from the Parallel Workloads Archive) through
// static backfill and SD-Policy and compare.
//
//   ./swf_replay --swf=/path/to/trace.swf [--nodes=N] [--cores=N]
//                [--max-jobs=N] [--maxsd=V]
//
// Without --swf, a demonstration trace is generated, written to a temp
// file, and replayed — so the example is runnable out of the box and also
// documents the SWF round-trip.
#include <cstdio>
#include <stdexcept>

#include "api/experiment.h"
#include "util/cli.h"
#include "util/table.h"
#include "workload/swf.h"
#include "workload/synthetic_logs.h"
#include "workload/workload_stats.h"

int main(int argc, char** argv) try {
  using namespace sdsched;
  const CliArgs args(argc, argv);

  std::string path = args.get_or("swf", "");
  if (path.empty()) {
    // Self-contained demo: synthesize a RICC-like trace and write it out.
    RiccConfig demo;
    demo.scale = 0.05;
    const Workload generated = generate_ricc_like(demo);
    path = "/tmp/sdsched_demo_trace.swf";
    write_swf_file(path, generated);
    std::printf("no --swf given; wrote a demo trace to %s\n\n", path.c_str());
  }

  SwfReadOptions options;
  options.max_jobs = static_cast<std::size_t>(args.get_int("max-jobs", 0));
  Workload workload = read_swf_file(path, options);

  // Machine: from the SWF header when present, overridable on the CLI.
  const int nodes = static_cast<int>(args.get_int(
      "nodes", workload.info().system_nodes > 0 ? workload.info().system_nodes : 64));
  const int cores = static_cast<int>(args.get_int(
      "cores", workload.info().cores_per_node > 0 ? workload.info().cores_per_node : 16));
  MachineConfig machine;
  machine.nodes = nodes;
  machine.node.sockets = 2;
  machine.node.cores_per_socket = std::max(1, cores / 2);
  workload.prepare_for(nodes, machine.node.sockets * machine.node.cores_per_socket);

  std::fputs(to_string(characterize(workload)).c_str(), stdout);

  PaperWorkload pw{"replay", workload, machine};
  const SimulationConfig sd_cfg =
      sd_config(machine, CutoffConfig::max_sd(args.get_double("maxsd", 10.0)));
  const ExperimentResult result = compare(pw, sd_cfg);

  AsciiTable table({"metric", "static backfill", "SD-Policy", "SD / static"});
  table.add_row({"makespan", format_duration(result.baseline.summary.makespan),
                 format_duration(result.policy.summary.makespan),
                 AsciiTable::num(result.normalized.makespan)});
  table.add_row({"avg response (s)",
                 AsciiTable::num(result.baseline.summary.avg_response, 0),
                 AsciiTable::num(result.policy.summary.avg_response, 0),
                 AsciiTable::num(result.normalized.avg_response)});
  table.add_row({"avg slowdown", AsciiTable::num(result.baseline.summary.avg_slowdown, 1),
                 AsciiTable::num(result.policy.summary.avg_slowdown, 1),
                 AsciiTable::num(result.normalized.avg_slowdown)});
  table.print();
  std::printf("\n%llu jobs scheduled with malleability, %llu mates shrunk\n",
              static_cast<unsigned long long>(result.policy.summary.guests),
              static_cast<unsigned long long>(result.policy.summary.mates));
  return 0;
} catch (const std::invalid_argument& e) {
  // A malformed flag (--jobs=abc) is a usage error, not a crash.
  std::fprintf(stderr, "%s: %s\n", "swf_replay", e.what());
  return 2;
} catch (const std::runtime_error& e) {
  // So is an unreadable or out-of-range SWF file ("SWF line N: ...").
  std::fprintf(stderr, "%s: %s\n", "swf_replay", e.what());
  return 2;
}

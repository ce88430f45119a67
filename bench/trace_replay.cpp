// trace_replay: run the registered real-system traces (workload/
// trace_catalog.h — CEA Curie and RICC) through every scheduler and the
// MAXSD cut-off sweep, reporting the burst-coalescing counters that real
// same-second submit bursts exercise far harder than synthetic arrivals.
//
// By default each trace loads from its bundled downsampled fixture
// (data/traces/<name>_sample.swf) at the FULL machine size — 5040 nodes for
// Curie — so the run is cheap in jobs but real in scale. In addition to the
// standard bench flags (bench_common.h):
//
//   --traces=curie,ricc     restrict the trace list
//   --schedulers=fcfs,sd    restrict the variant cells (the static-backfill
//                           baseline always runs — it is the normalization
//                           denominator); "sd" enables the MAXSD sweep.
//                           CI uses this for a short SD-only Curie slice so
//                           the SD hot path is serial-parity-checked on
//                           every push.
//   --synthesize            ignore fixtures; synthesize_like() at --scale
//                           (default synthesis scale 0.02)
//   --max-jobs=N            cap jobs per trace after scaling
//   --write-fixtures=DIR    regenerate the bundled fixtures into DIR and exit
//   --fixture-jobs=N        fixture size for --write-fixtures (default 2500,
//                           the size of the committed data/traces fixtures)
//   --soak                  archive-scale replay (the nightly soak): ingest
//                           each trace's FULL log from
//                           $SDSCHED_TRACE_DIR/<archive_file> when present
//                           (the real Parallel Workloads Archive file, not
//                           redistributed here), else synthesize_soak() at
//                           --soak-jobs jobs on the full machine. Defaults
//                           to backfill + fcfs so a 448K-job night stays
//                           bounded; pass --schedulers=sd to soak SD too
//                           (one DynAVGSD cell per trace, not the 5-variant
//                           sweep — the nightly SD tier). Stamps the
//                           `ingest` phase into the JSON phase breakdown.
//   --sd-guest-budget=K     GuestScanPolicy budget for every SD cell: at
//                           most K queued guests considered per SD pass
//                           (0 = unbounded, the byte-identical default).
//                           The nightly SD tier sets this — saturated soak
//                           queues make unbounded passes superlinear.
//   --soak-jobs=N           synthesized soak size when the real log is
//                           absent (default 200000)
//   --max-rss-mb=N          fail (exit 1) when peak RSS exceeds N MiB — the
//                           nightly memory-flatness gate (0 = report only)
#include "bench_common.h"

#include <fstream>
#include <stdexcept>

#include "workload/swf.h"
#include "workload/trace_catalog.h"
#include "workload/workload_stats.h"

namespace {

using namespace sdsched;
using namespace sdsched::bench;

std::vector<std::string> parse_trace_list(const std::string& csv) {
  std::vector<std::string> names = split_csv(csv);
  if (names.empty()) {
    for (const auto& info : trace_catalog()) names.push_back(info.name);
  }
  return names;
}

struct TraceEntry {
  LoadedTrace loaded;
  MachineConfig machine;
};

/// Soak ingestion: the real full log when $SDSCHED_TRACE_DIR holds it (the
/// streaming reader keeps the parse flat in memory; only the job vector is
/// resident), else an archive-scale synthesized stand-in at the full
/// machine size.
LoadedTrace load_soak_trace(const TraceInfo& info, std::size_t soak_jobs,
                            std::uint64_t seed) {
  LoadedTrace loaded;
  loaded.info = info;
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* dir = std::getenv("SDSCHED_TRACE_DIR"); dir != nullptr && *dir != '\0') {
    const std::string path = std::string(dir) + "/" + info.archive_file;
    if (std::ifstream probe(path); probe.good()) {
      Workload workload = read_swf_file(path);
      workload.info().name = info.name;
      workload.prepare_for(info.nodes, info.cores_per_node);
      loaded.workload = std::move(workload);
      loaded.from_fixture = true;
      loaded.source = path;
    }
  }
  if (loaded.workload.empty()) {
    loaded.workload = synthesize_soak(info, soak_jobs, seed);
    loaded.source = "synthesize_soak";
  }
  loaded.validation = validate_trace(loaded.workload, loaded.info);
  return loaded;
}

}  // namespace

int main(int argc, char** argv) try {
  BenchContext ctx = BenchContext::from_args(argc, argv);
  const CliArgs args(argc, argv);

  if (const std::string dir = args.get_or("write-fixtures", ""); !dir.empty()) {
    const auto n_jobs = static_cast<std::size_t>(args.get_int("fixture-jobs", 2500));
    for (const auto& info : trace_catalog()) {
      write_trace_fixture(info, dir + "/" + info.name + "_sample.swf", n_jobs);
    }
    return 0;
  }

  print_banner("Trace replay", "real-trace grid: schedulers x SD policies",
               "W3/W4 replay real logs (RICC-2010, CEA-Curie-2011); same-second "
               "submit bursts coalesce into one pass on the non-SD schedulers");

  const bool soak = args.get_bool("soak");
  const auto soak_jobs = static_cast<std::size_t>(args.get_int("soak-jobs", 200000));
  const long long max_rss_mb = args.get_int("max-rss-mb", 0);
  const int sd_guest_budget = static_cast<int>(args.get_int("sd-guest-budget", 0));

  bool run_fcfs = true;
  bool run_sd = !soak;  // the nightly soak bounds its runtime: SD is opt-in
  if (const std::string list = args.get_or("schedulers", ""); !list.empty()) {
    run_fcfs = run_sd = false;
    for (const std::string& token : split_csv(list)) {
      if (token == "fcfs") {
        run_fcfs = true;
      } else if (token == "sd") {
        run_sd = true;
      } else if (token != "backfill") {  // baseline always runs; others are typos
        std::fprintf(stderr,
                     "ERROR: unknown --schedulers token '%s' (expected backfill, fcfs, "
                     "sd)\n",
                     token.c_str());
        return 1;
      }
    }
  }

  const bool synthesize = args.get_bool("synthesize");
  const double scale = args.get_bool("full")
                           ? 1.0
                           : args.get_double("scale", synthesize ? 0.02 : 1.0);
  // One scale governs every trace here; mirror it into the JSON context so
  // the document records what actually ran.
  ctx.scale_small = ctx.scale_curie = ctx.scale_w5 = scale;

  GridBuilder grid;
  std::vector<TraceEntry> traces;
  const auto ingest_start = std::chrono::steady_clock::now();
  for (const auto& name : parse_trace_list(args.get_or("traces", ""))) {
    TraceEntry entry;
    if (soak) {
      const TraceInfo* soak_info = find_trace(name);
      if (soak_info == nullptr) {
        std::fprintf(stderr, "ERROR: unknown trace '%s'\n", name.c_str());
        return 1;
      }
      entry.loaded = load_soak_trace(*soak_info, soak_jobs, ctx.seed);
    } else {
      TraceLoadOptions options;
      options.scale = scale;
      options.seed = ctx.seed;
      options.allow_fixture = !synthesize;
      options.max_jobs = static_cast<std::size_t>(args.get_int("max-jobs", 0));
      entry.loaded = load_trace(name, options);
    }
    const TraceInfo& info = entry.loaded.info;
    entry.machine = trace_machine(entry.loaded);

    const WorkloadStats& stats = entry.loaded.validation.stats;
    std::printf("  %s (%s): %zu jobs on %d nodes x %d cores; %zu jobs in same-second "
                "bursts (max %zu)\n",
                info.label.c_str(), entry.loaded.source.c_str(),
                entry.loaded.workload.size(), entry.machine.nodes,
                entry.machine.node.sockets * entry.machine.node.cores_per_socket,
                stats.same_time_submits, stats.max_submit_burst);

    // The grid: static backfill (the normalization baseline), plain FCFS,
    // and SD-Policy under every cut-off variant, all on shared job storage.
    grid.baseline(info.label + "/backfill", entry.loaded.workload,
                  baseline_config(entry.machine));
    if (run_fcfs) {
      SimulationConfig fcfs_cfg = baseline_config(entry.machine);
      fcfs_cfg.policy = PolicyKind::Fcfs;
      grid.variant(info.label, "fcfs", 0, entry.loaded.workload, fcfs_cfg);
    }
    if (run_sd) {
      if (soak) {
        // The nightly SD tier: one DynAVGSD cell per trace (the paper's
        // headline variant), not the 5-variant sweep — a 200K-job night
        // stays inside the wall budget, and the guest budget + scan
        // ledger keep the saturated-queue passes depth-flat.
        SimulationConfig sd_cfg = sd_config(entry.machine, CutoffConfig::dynamic_avg());
        sd_cfg.sd.scan.guest_budget = sd_guest_budget;
        grid.variant(info.label, "DynAVGSD", 0, entry.loaded.workload, sd_cfg);
      } else {
        for (const auto& variant : maxsd_sweep()) {
          SimulationConfig sd_cfg = sd_config(entry.machine, variant.cutoff);
          sd_cfg.sd.scan.guest_budget = sd_guest_budget;
          grid.variant(info.label, variant.label, 0, entry.loaded.workload, sd_cfg);
        }
      }
    }
    traces.push_back(std::move(entry));
  }
  // The trace loads are this bench's `ingest` phase (reader/synthesis);
  // write_bench_json carves it out of `generate` in the JSON breakdown.
  ctx.ingest_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - ingest_start)
          .count();

  const SweepExecution exec = grid.run(ctx);

  std::printf("\nAverage slowdown normalized to static backfill (<1 = variant wins):\n\n");
  std::vector<std::string> header{"trace"};
  if (run_fcfs) header.push_back("fcfs");
  if (run_sd) {
    if (soak) {
      header.emplace_back("DynAVGSD");
    } else {
      for (const auto& variant : maxsd_sweep()) header.push_back(variant.label);
    }
  }
  AsciiTable table(header);
  for (const auto& entry : traces) {
    std::vector<std::string> row{entry.loaded.info.label};
    for (const auto& r : grid.rows) {
      if (r.workload == entry.loaded.info.label) {
        row.push_back(AsciiTable::num(r.normalized.avg_slowdown, 3));
      }
    }
    table.add_row(std::move(row));
  }
  table.print();

  std::printf("\nKernel burst metrics per cell (bursts coalesce on non-SD schedulers):\n\n");
  AsciiTable bursts({"cell", "events", "passes", "submits_coalesced", "ticks_cancelled"});
  std::uint64_t total_coalesced = 0;
  for (const auto& result : exec.results) {
    const SimulationReport& report = result.report;
    bursts.add_row({result.name, std::to_string(report.events_fired),
                    std::to_string(report.scheduling_passes),
                    std::to_string(report.submits_coalesced),
                    std::to_string(report.ticks_cancelled)});
    total_coalesced += report.submits_coalesced;
  }
  bursts.print();
  std::printf("\n%llu submits coalesced across the grid\n",
              static_cast<unsigned long long>(total_coalesced));
  // Every grid contains coalescing-eligible cells (backfill, fcfs), so if
  // the loaded traces carry same-second bursts and *nothing* coalesced, the
  // kernel's burst handling regressed — fail the run (CI relies on this).
  std::size_t bursty_inputs = 0;
  for (const auto& entry : traces) {
    if (entry.loaded.validation.stats.same_time_submits > 0) ++bursty_inputs;
  }
  if (bursty_inputs > 0 && total_coalesced == 0) {
    std::fprintf(stderr,
                 "ERROR: %zu trace(s) carry same-second submit bursts but no submits "
                 "were coalesced\n",
                 bursty_inputs);
    return 1;
  }

  write_bench_json(ctx.json_path, "trace_replay", ctx, exec, grid.rows,
                   [&traces, soak, soak_jobs, max_rss_mb, sd_guest_budget](JsonWriter& json) {
                     json.key("traces");
                     json.begin_array();
                     for (const auto& entry : traces) {
                       const WorkloadStats& stats = entry.loaded.validation.stats;
                       json.begin_object();
                       json.field("name", entry.loaded.info.name);
                       json.field("label", entry.loaded.info.label);
                       json.field("source", entry.loaded.source);
                       json.field("from_fixture", entry.loaded.from_fixture);
                       json.field("jobs", stats.n_jobs);
                       json.field("nodes", stats.system_nodes);
                       json.field("max_job_nodes", stats.max_job_nodes);
                       json.field("offered_load", stats.offered_load);
                       json.field("same_time_submits", stats.same_time_submits);
                       json.field("max_submit_burst", stats.max_submit_burst);
                       json.field("distinct_submit_times", stats.distinct_submit_times);
                       json.end_object();
                     }
                     json.end_array();
                     if (soak) {
                       json.key("soak");
                       json.begin_object();
                       json.field("soak_jobs", soak_jobs);
                       json.field("max_rss_mb", max_rss_mb);
                       json.field("sd_guest_budget", sd_guest_budget);
                       json.end_object();
                     }
                   });

  // Nightly memory-flatness gate: the streaming reader plus one resident
  // job vector per trace should keep even a 448K-job replay well under the
  // budget; a breach means an O(jobs) structure crept back in somewhere.
  if (max_rss_mb > 0) {
    const double rss_mb = static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0);
    std::printf("\npeak RSS %.1f MiB (budget %lld MiB)\n", rss_mb, max_rss_mb);
    if (rss_mb > static_cast<double>(max_rss_mb)) {
      std::fprintf(stderr, "ERROR: peak RSS %.1f MiB exceeds --max-rss-mb=%lld\n", rss_mb,
                   max_rss_mb);
      return 1;
    }
  }
  return 0;
} catch (const std::invalid_argument& e) {
  // A malformed flag or an out-of-range SD knob is a usage error.
  std::fprintf(stderr, "trace_replay: %s\n", e.what());
  return 2;
}

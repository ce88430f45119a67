#include "workload/trace_catalog.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "util/logging.h"
#include "util/rng.h"
#include "workload/swf.h"
#include "workload/synthetic_logs.h"

namespace sdsched {

namespace {

constexpr std::uint64_t kBurstSalt = 0x7472616365ULL;  // "trace"

/// Collapse runs of consecutive arrivals into same-second submit groups.
/// `burst_fraction` is the probability that an arrival opens a burst; the
/// group length is geometric-ish (p = 0.45 to continue), capped at
/// info.max_burst. Drawn groups never chain into one oversized group: a
/// leader that already shares its second with its predecessor is skipped,
/// and arrivals that naturally share the leader's second are absorbed into
/// the group (the next job's submit is strictly later, so the group ends
/// there). Leaves (submit, id) order sorted, so normalize() only renumbers.
void burstify(Workload& workload, const TraceInfo& info, std::uint64_t seed) {
  if (info.burst_fraction <= 0.0 || info.max_burst < 2 || workload.size() < 2) return;
  Rng rng(seed ^ kBurstSalt);
  auto& jobs = workload.mutable_jobs();
  std::size_t i = 0;
  while (i + 1 < jobs.size()) {
    if (i > 0 && jobs[i].submit == jobs[i - 1].submit) {
      ++i;
      continue;
    }
    if (!rng.chance(info.burst_fraction)) {
      ++i;
      continue;
    }
    std::size_t length = 2;
    while (length < static_cast<std::size_t>(info.max_burst) && rng.chance(0.45)) ++length;
    std::size_t end = std::min(jobs.size(), i + length);
    while (end < jobs.size() && jobs[end].submit == jobs[i].submit) ++end;
    for (std::size_t j = i + 1; j < end; ++j) jobs[j].submit = jobs[i].submit;
    i = end;
  }
  workload.normalize();
}

/// Dispatch to the synthetic_logs generator behind `info`. With
/// `jobs_override` > 0 the job count is pinned (fixtures: few jobs, full
/// machine); otherwise `scale` shrinks nodes and jobs together. A positive
/// `load_override` replaces the log-wide average offered load.
Workload synthesize_base(const TraceInfo& info, double scale, std::uint64_t seed,
                         int jobs_override, double load_override = 0.0) {
  if (info.name == "ricc") {
    RiccConfig config;
    config.scale = scale;
    config.seed = seed;
    config.pct_malleable = info.pct_malleable;
    if (jobs_override > 0) config.base_jobs = jobs_override;
    if (load_override > 0.0) config.target_load = load_override;
    return generate_ricc_like(config);
  }
  if (info.name == "curie") {
    CurieConfig config;
    config.scale = scale;
    config.seed = seed;
    config.pct_malleable = info.pct_malleable;
    if (jobs_override > 0) config.base_jobs = jobs_override;
    if (load_override > 0.0) config.target_load = load_override;
    return generate_curie_like(config);
  }
  throw std::invalid_argument("trace_catalog: no generator registered for '" + info.name +
                              "'");
}

void assign_malleability(Workload& workload, const TraceInfo& info, std::uint64_t seed) {
  if (info.pct_malleable >= 1.0) return;  // reader default is Malleable
  Rng rng(seed + 100);
  auto& jobs = workload.mutable_jobs();
  for (auto& spec : jobs) {
    spec.malleability = rng.chance(info.pct_malleable) ? MalleabilityClass::Malleable
                                                       : MalleabilityClass::Rigid;
  }
}

}  // namespace

const std::vector<TraceInfo>& trace_catalog() {
  // Magic-static init is thread-safe and the catalog is immutable afterwards.
  // Shapes follow the cleaned Parallel Workloads Archive logs the paper
  // replays (Table 1); provenance and licensing in docs/workloads.md.
  static const std::vector<TraceInfo> catalog = {
      TraceInfo{
          /*name=*/"curie",
          /*label=*/"Curie",
          /*system=*/"CEA Curie thin-node partition (Bull B510)",
          /*archive_file=*/"CEA-Curie-2011-2.1-cln.swf",
          /*full_log_jobs=*/198509,
          /*nodes=*/5040,
          /*cores_per_node=*/16,
          /*sockets=*/2,
          /*burst_fraction=*/0.22,
          /*max_burst=*/24,
          /*avg_offered_load=*/0.82,
          /*pct_malleable=*/1.0,
          /*default_seed=*/4,
      },
      TraceInfo{
          /*name=*/"ricc",
          /*label=*/"RICC",
          /*system=*/"RIKEN Integrated Cluster of Clusters (massively parallel part)",
          /*archive_file=*/"RICC-2010-2.swf",
          /*full_log_jobs=*/447794,
          /*nodes=*/1024,
          /*cores_per_node=*/8,
          /*sockets=*/2,
          /*burst_fraction=*/0.15,
          /*max_burst=*/12,
          /*avg_offered_load=*/1.35,
          /*pct_malleable=*/1.0,
          /*default_seed=*/3,
      },
  };
  return catalog;
}

const TraceInfo* find_trace(const std::string& name) {
  for (const auto& info : trace_catalog()) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

Workload synthesize_like(const TraceInfo& info, double scale, std::uint64_t seed) {
  if (seed == 0) seed = info.default_seed;
  Workload workload = synthesize_base(info, scale, seed, /*jobs_override=*/0);
  burstify(workload, info, seed);
  workload.info().name = info.name;
  workload.prepare_for(workload.info().system_nodes, workload.info().cores_per_node);
  return workload;
}

Workload synthesize_soak(const TraceInfo& info, std::size_t n_jobs, std::uint64_t seed,
                         double offered_load) {
  if (seed == 0) seed = info.default_seed;
  const double load = offered_load > 0.0 ? offered_load : info.avg_offered_load;
  Workload workload = synthesize_base(info, /*scale=*/1.0, seed, static_cast<int>(n_jobs),
                                      /*load_override=*/load);
  burstify(workload, info, seed);
  workload.info().name = info.name;
  workload.prepare_for(info.nodes, info.cores_per_node);
  return workload;
}

std::string default_fixture_path(const TraceInfo& info, const std::string& dir) {
  std::string resolved = dir;
  if (resolved.empty()) {
    // Read once while resolving fixture paths; no setenv anywhere in the tree.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    if (const char* env = std::getenv("SDSCHED_TRACE_DIR"); env != nullptr && *env != '\0') {
      resolved = env;
    } else {
#ifdef SDSCHED_TRACE_DIR
      resolved = SDSCHED_TRACE_DIR;
#else
      resolved = "data/traces";
#endif
    }
  }
  return resolved + "/" + info.name + "_sample.swf";
}

LoadedTrace load_trace(const std::string& name, const TraceLoadOptions& options) {
  const TraceInfo* info = find_trace(name);
  if (info == nullptr) {
    throw std::invalid_argument("load_trace: unknown trace '" + name +
                                "' (see trace_catalog())");
  }
  LoadedTrace loaded;
  loaded.info = *info;
  const std::uint64_t seed = options.seed != 0 ? options.seed : info->default_seed;
  // Guard the size arithmetic below (and the generators) against degenerate
  // user-supplied scales.
  const double scale = std::clamp(options.scale, 0.001, 1.0);

  if (options.allow_fixture) {
    const std::string path = default_fixture_path(*info, options.fixture_dir);
    if (std::ifstream probe(path); probe.good()) {
      SwfReadOptions read_options;
      // A bounded load stops the chunked scan at max_jobs rows: an archive-
      // scale log pointed at via SDSCHED_TRACE_DIR is never read (let alone
      // materialized) past the cap. SWF logs are submit-ordered, so the
      // first max_jobs rows are the earliest — the same jobs the
      // read-everything-then-truncate path kept. With --scale < 1 the keep
      // count depends on the full row count, so only that path still reads
      // the whole file.
      if (scale >= 1.0) read_options.max_jobs = options.max_jobs;
      Workload workload = read_swf_file(path, read_options);
      // The fixture is a fixed-size sample: --scale on a fixture keeps the
      // earliest fraction of the trace rather than re-synthesizing.
      std::size_t keep = workload.size();
      if (scale < 1.0) {
        keep = std::max<std::size_t>(
            50, static_cast<std::size_t>(static_cast<double>(keep) * scale));
      }
      if (options.max_jobs != 0) keep = std::min(keep, options.max_jobs);
      if (keep < workload.size()) {
        workload.mutable_jobs().resize(keep);
        workload.normalize();
      }
      assign_malleability(workload, *info, seed);
      workload.info().name = info->name;
      workload.prepare_for(info->nodes, info->cores_per_node);
      loaded.workload = std::move(workload);
      loaded.from_fixture = true;
      loaded.source = path;
    }
  }
  if (!loaded.from_fixture) {
    if (!options.allow_synthesis) {
      throw std::runtime_error("load_trace: no fixture for '" + name + "' under " +
                               default_fixture_path(*info, options.fixture_dir) +
                               " and synthesis is disabled");
    }
    Workload workload = synthesize_like(*info, scale, seed);
    if (options.max_jobs != 0 && workload.size() > options.max_jobs) {
      workload.mutable_jobs().resize(options.max_jobs);
      workload.normalize();
      workload.prepare_for(workload.info().system_nodes, workload.info().cores_per_node);
    }
    loaded.workload = std::move(workload);
    loaded.source = "synthesize_like";
  }

  loaded.validation = validate_trace(loaded.workload, loaded.info);
  for (const auto& issue : loaded.validation.issues) {
    log_warn("trace", name, ": ", issue);
  }
  log_info("trace", "loaded ", name, " from ", loaded.source, ": ", loaded.workload.size(),
           " jobs on ", loaded.workload.info().system_nodes, " nodes");
  return loaded;
}

TraceValidation validate_trace(const Workload& workload, const TraceInfo& info) {
  TraceValidation validation;
  validation.stats = characterize(workload);
  const WorkloadStats& stats = validation.stats;
  const auto issue = [&validation](std::string text) {
    validation.ok = false;
    validation.issues.push_back(std::move(text));
  };

  if (workload.empty()) {
    issue("empty workload");
    return validation;
  }
  if (stats.system_nodes <= 0 || stats.system_nodes > info.nodes) {
    issue("system_nodes " + std::to_string(stats.system_nodes) + " outside (0, " +
          std::to_string(info.nodes) + "]");
  }
  if (stats.max_job_nodes > stats.system_nodes) {
    issue("max job spans " + std::to_string(stats.max_job_nodes) + " nodes on a " +
          std::to_string(stats.system_nodes) + "-node machine");
  }
  if (stats.mean_runtime <= 0.0) issue("nonpositive mean runtime");
  if (stats.request_accuracy <= 0.0 || stats.request_accuracy > 1.0) {
    issue("request accuracy " + std::to_string(stats.request_accuracy) +
          " outside (0, 1] — estimate sanitization failed");
  }
  if (stats.offered_load <= 0.0 || stats.offered_load > 5.0) {
    issue("implausible offered load " + std::to_string(stats.offered_load));
  }
  if (info.burst_fraction > 0.0 && stats.same_time_submits == 0) {
    issue("trace documents same-second submit bursts but none are present");
  }
  return validation;
}

void write_trace_fixture(const TraceInfo& info, const std::string& path,
                         std::size_t n_jobs) {
  // Downsamples keep a *busy window* of the log, not its multi-month
  // average: with a few hundred jobs at the full machine size, the log-wide
  // average load (0.82 for Curie) would never build a queue and every
  // scheduler would degenerate to immediate starts. Floor the sampling
  // window's offered load so fixtures exercise queueing and malleability.
  constexpr double kMinFixtureLoad = 1.10;
  Workload workload =
      synthesize_base(info, /*scale=*/1.0, info.default_seed, static_cast<int>(n_jobs),
                      std::max(kMinFixtureLoad, info.avg_offered_load));
  burstify(workload, info, info.default_seed);

  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write fixture: " + path);
  out << "; " << info.label << " downsampled fixture: deterministic synthesized stand-in\n"
      << "; for the " << info.archive_file << " log (" << info.full_log_jobs
      << " jobs) at the full machine size. The real log is NOT redistributed\n"
      << "; here — provenance, licensing and the sampling recipe are in\n"
      << "; docs/workloads.md. Regenerate with: trace_replay --write-fixtures=<dir>\n"
      << "; MaxNodes: " << info.nodes << "\n"
      << "; MaxProcs: " << static_cast<long long>(info.nodes) * info.cores_per_node << "\n";
  long long row = 0;
  for (const auto& spec : workload.jobs()) {
    ++row;
    // A deterministic sprinkle of non-completed statuses: every 17th row is
    // failed (kept by the default reader options; every 51st additionally
    // has the archives' "-1 runtime" quirk, exercising the sanitizer) and
    // every 23rd non-failed row is cancelled (dropped by default).
    int status = 1;
    long long runtime = static_cast<long long>(spec.base_runtime);
    if (row % 17 == 0) {
      status = 0;
      if (row % 51 == 0) runtime = -1;
    } else if (row % 23 == 0) {
      status = 5;
    }
    out << row << ' ' << spec.submit << ' ' << -1 << ' ' << runtime << ' ' << spec.req_cpus
        << ' ' << -1 << ' ' << -1 << ' ' << spec.req_cpus << ' ' << spec.req_time << ' '
        << -1 << ' ' << status << ' ' << spec.user_id << ' ' << -1 << ' ' << -1 << ' '
        << -1 << ' ' << -1 << ' ' << -1 << ' ' << -1 << '\n';
  }
  log_info("trace", "wrote fixture ", path, " (", workload.size(), " jobs)");
}

}  // namespace sdsched

// Shared pieces of the sdbench programs: the workload table, where each
// workload's input lives, the decision digest, the per-replay output checks
// and the one-line result every program prints last.
//
// Every workload replays an SWF file written by sdbench_gen (a fixed
// synthesize_soak() base trace whose run times the seed redraws) and read
// back through load_trace() with `fixture_dir` pointing at it — the path a
// user takes with a real log in SDSCHED_TRACE_DIR. The measured programs
// never synthesize anything.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "api/experiment.h"
#include "api/simulation.h"
#include "util/cli.h"
#include "util/json.h"
#include "workload/trace_catalog.h"

namespace sdbench {

struct WorkloadDef {
  const char* name;
  const char* trace;  ///< trace_catalog() key
  std::size_t jobs;   ///< synthesize_soak job count, at the full machine size
  sdsched::PolicyKind policy;
  int guest_budget;   ///< SdConfig::scan.guest_budget (0 = unbounded)
};

// Why each workload exists is recorded in README.md and BENCHMARK.json.
inline constexpr std::array<WorkloadDef, 4> kWorkloads = {{
    {"curie-sd", "curie", 10000, sdsched::PolicyKind::SdPolicy, 0},
    {"curie-backfill", "curie", 10000, sdsched::PolicyKind::Backfill, 0},
    {"ricc-sd", "ricc", 6500, sdsched::PolicyKind::SdPolicy, 256},
    {"ricc-backfill", "ricc", 5000, sdsched::PolicyKind::Backfill, 0},
}};

inline const WorkloadDef& find_workload(const std::string& name) {
  for (const auto& def : kWorkloads) {
    if (name == def.name) return def;
  }
  throw std::invalid_argument("unknown workload '" + name +
                              "' (curie-sd, curie-backfill, ricc-sd, ricc-backfill)");
}

/// The command-line options every sdbench program shares.
struct Options {
  const WorkloadDef* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  std::string inputs;  ///< root of the per-seed input directories
  std::string out;     ///< where result files go ("" = none)

  static Options parse(int argc, const char* const* argv) {
    const sdsched::CliArgs args(argc, argv);
    Options options;
    options.workload = &find_workload(args.get_or("workload", ""));
    const std::int64_t seed = args.get_int("seed", -1);
    if (seed < 0) throw std::invalid_argument("--seed=N (N >= 0) is required");
    options.seed = static_cast<std::uint64_t>(seed);
    options.seconds = args.get_double("seconds", 10.0);
    options.inputs = args.get_or("inputs", "build-sdbench/inputs");
    options.out = args.get_or("out", "");
    return options;
  }

  /// build-sdbench/inputs/<workload>-s<seed>
  [[nodiscard]] std::string input_dir() const {
    return inputs + "/" + workload->name + "-s" + std::to_string(seed);
  }
  /// The SWF file load_trace() resolves inside input_dir().
  [[nodiscard]] std::string input_path() const {
    return input_dir() + "/" + workload->trace + "_sample.swf";
  }
};

/// Load the workload's input exactly as a user replays a real log.
inline sdsched::LoadedTrace load_input(const Options& options) {
  sdsched::TraceLoadOptions load;
  load.fixture_dir = options.input_dir();
  load.seed = options.seed;
  load.allow_synthesis = false;
  return sdsched::load_trace(options.workload->trace, load);
}

inline sdsched::SimulationConfig config_for(const WorkloadDef& def,
                                            const sdsched::LoadedTrace& loaded) {
  const sdsched::MachineConfig machine = sdsched::trace_machine(loaded);
  if (def.policy == sdsched::PolicyKind::Backfill) return sdsched::baseline_config(machine);
  sdsched::SimulationConfig config =
      sdsched::sd_config(machine, sdsched::CutoffConfig::dynamic_avg());
  config.sd.scan.guest_budget = def.guest_budget;
  return config;
}

inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

inline void fnv1a(std::uint64_t& hash, std::string_view bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
}

inline std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

/// FNV-1a digest and job-row count of an input file's bytes.
struct InputDigest {
  std::uint64_t fnv1a = kFnvBasis;
  std::size_t rows = 0;
};

/// A file's bytes; empty when it is missing.
inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

inline InputDigest digest_input(const std::string& path) {
  const std::string bytes = read_file(path);
  if (bytes.empty()) throw std::runtime_error("missing input " + path + " (run sdbench_gen)");
  InputDigest digest;
  fnv1a(digest.fnv1a, bytes);
  for (std::size_t pos = 0; pos < bytes.size();) {
    const std::size_t end = std::min(bytes.find('\n', pos), bytes.size());
    if (end > pos && bytes[pos] != ';') ++digest.rows;
    pos = end + 1;
  }
  return digest;
}

/// The decisions digest: FNV-1a over every field of every job record, the
/// same serialization the golden-parity tests pin as `records_fnv1a`.
inline std::uint64_t records_digest(const std::vector<sdsched::JobRecord>& records) {
  std::uint64_t hash = kFnvBasis;
  const auto mix = [&hash](std::int64_t v) {
    char buf[32];
    const int n = std::snprintf(buf, sizeof buf, "%lld|", static_cast<long long>(v));
    fnv1a(hash, std::string_view(buf, static_cast<std::size_t>(n)));
  };
  for (const auto& r : records) {
    mix(r.id);
    mix(r.submit);
    mix(r.start);
    mix(r.end);
    mix(r.req_time);
    mix(r.base_runtime);
    mix(r.req_cpus);
    mix(r.req_nodes);
    mix(r.was_guest ? 1 : 0);
    mix(r.was_mate ? 1 : 0);
    mix(r.reconfigurations);
  }
  return hash;
}

/// Output checks on one replay; returns "" when every check passes.
inline std::string check_records(const std::vector<sdsched::JobRecord>& records,
                                 std::size_t input_jobs) {
  if (records.size() != input_jobs) {
    return std::to_string(records.size()) + " records for " + std::to_string(input_jobs) +
           " input jobs";
  }
  for (const auto& r : records) {
    if (r.start < r.submit) return "job " + std::to_string(r.id) + " starts before submit";
    if (r.end <= r.start) return "job " + std::to_string(r.id) + " ends at or before start";
  }
  return "";
}

inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(const std::vector<double>& values) { return quantile(values, 0.5); }

/// The fastest of a run's repetitions, 0 when there are none. Every
/// repetition does the same work, so the fastest is the one other load on
/// the host slowed least; on shared hosts that load comes in bursts lasting
/// seconds, which move a median by far more (README.md, "Machine and spread").
inline double fastest(const std::vector<double>& seconds) {
  return seconds.empty() ? 0.0 : *std::min_element(seconds.begin(), seconds.end());
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

inline void write_metrics(sdsched::JsonWriter& json, const std::vector<Metric>& metrics) {
  json.begin_object();
  for (const auto& m : metrics) {
    json.key(m.name);
    json.begin_object();
    json.field("value", m.value);
    json.field("unit", m.unit);
    json.end_object();
  }
  json.end_object();
}

/// Print each metric on its own line, then the one-line result object that
/// must be the last line of standard output.
inline void print_result(bool correct, std::size_t attempted, std::size_t failed,
                         const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("  %-30s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  sdsched::JsonWriter json(0);
  json.begin_object();
  json.field("correct", correct);
  json.field("attempted", attempted);
  json.field("failed", failed);
  json.key("metrics");
  write_metrics(json, metrics);
  json.end_object();
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

}  // namespace sdbench

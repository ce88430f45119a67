// sdbench_run: the end-to-end measurement of one workload, tracing off.
//
//   sdbench_run --workload=curie-sd --seed=1 --seconds=10
//               [--inputs=build-sdbench/inputs] [--out=DIR]
//
// One repetition is set-up — load_trace() plus the Simulation constructor —
// followed by the replay, Simulation::run(). Repetitions continue until
// --seconds have passed and at least kMinReplays were made; each time is the
// fastest of the repetitions that passed their output checks. The process
// is single-threaded (default ShardConfig, no SweepRunner), so peak RSS and
// wall time belong to this workload alone.
#include <chrono>
#include <cstdio>
#include <exception>
#include <optional>

#include "sdbench.h"
#include "util/rss.h"

namespace {

constexpr std::size_t kMinReplays = 3;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const sdbench::Options options = sdbench::Options::parse(argc, argv);
    const sdbench::InputDigest input = sdbench::digest_input(options.input_path());

    std::vector<double> setup_s;
    std::vector<double> run_s;
    std::optional<std::uint64_t> decisions;
    sdsched::MetricsSummary summary;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    const auto started = std::chrono::steady_clock::now();
    while (attempted < kMinReplays || seconds_since(started) < options.seconds) {
      ++attempted;
      const auto setup_start = std::chrono::steady_clock::now();
      const sdsched::LoadedTrace loaded = sdbench::load_input(options);
      sdsched::Simulation sim(sdbench::config_for(*options.workload, loaded), loaded.workload);
      const double setup = seconds_since(setup_start);
      const auto run_start = std::chrono::steady_clock::now();
      const sdsched::SimulationReport report = sim.run();
      const double run = seconds_since(run_start);

      std::string problem = sdbench::check_records(report.records, input.rows);
      const std::uint64_t digest = sdbench::records_digest(report.records);
      if (problem.empty() && decisions && digest != *decisions) {
        problem = "decisions digest " + sdbench::hex(digest) + " differs from " +
                  sdbench::hex(*decisions);
      }
      if (!problem.empty()) {
        ++failed;
        std::fprintf(stderr, "sdbench_run: replay %zu failed: %s\n", attempted,
                     problem.c_str());
        continue;
      }
      if (!decisions) {
        decisions = digest;
        summary = report.summary;
      }
      setup_s.push_back(setup);
      run_s.push_back(run);
    }

    const double peak_rss_mb =
        static_cast<double>(sdsched::peak_rss_bytes()) / (1024.0 * 1024.0);
    const std::vector<sdbench::Metric> metrics = {
        {"jobs_per_s", static_cast<double>(input.rows) / sdbench::fastest(run_s), "jobs/s"},
        {"setup_s", sdbench::fastest(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
        {"avg_response_s", summary.avg_response, "s"},
        {"makespan_s", static_cast<double>(summary.makespan), "s"},
        {"energy_kwh", summary.energy_kwh, "kWh"},
    };
    const bool correct = failed == 0 && decisions.has_value();
    const std::string decisions_hex = decisions ? sdbench::hex(*decisions) : "none";

    // avg_slowdown is recorded, and compared seed by seed by compare.py, but
    // has no bound: a few short jobs' waits move it by up to 59% between
    // seeds on the saturated RICC workloads (README.md, "Seeds").
    const sdbench::Metric slowdown{"avg_slowdown", summary.avg_slowdown, "ratio"};

    std::printf("%s seed %llu: input %zu rows fnv1a %s; %zu/%zu replays passed; "
                "decisions fnv1a %s; avg_slowdown %.6f\n",
                options.workload->name, static_cast<unsigned long long>(options.seed),
                input.rows, sdbench::hex(input.fnv1a).c_str(), attempted - failed, attempted,
                decisions_hex.c_str(), slowdown.value);
    if (!options.out.empty()) {
      sdsched::JsonWriter json;
      json.begin_object();
      json.field("schema", "sdbench-result-v1");
      json.field("workload", options.workload->name);
      json.field("seed", options.seed);
      json.field("input_rows", input.rows);
      json.field("input_fnv1a", sdbench::hex(input.fnv1a));
      json.field("decisions_fnv1a", decisions_hex);
      json.field("replays_attempted", attempted);
      json.field("replays_failed", failed);
      std::vector<sdbench::Metric> recorded = metrics;
      recorded.push_back(slowdown);
      json.key("metrics");
      sdbench::write_metrics(json, recorded);
      json.key("samples");
      json.begin_object();
      for (const auto& [name, values] :
           {std::pair{"setup_s", &setup_s}, std::pair{"run_s", &run_s}}) {
        json.key(name);
        json.begin_array();
        for (const double v : *values) json.value(v);
        json.end_array();
      }
      json.end_object();
      json.end_object();
      sdsched::write_text_file(options.out + "/" + options.workload->name + "-s" +
                                   std::to_string(options.seed) + ".json",
                               json.str() + "\n");
    }
    sdbench::print_result(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sdbench_run: %s\n", e.what());
    return 1;
  }
}

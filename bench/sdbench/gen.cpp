// sdbench_gen: write one workload's input SWF for a seed, once.
//
//   sdbench_gen --workload=curie-sd --seed=1 [--inputs=build-sdbench/inputs]
//
// The input is the trace's synthesize_soak() base — its default seed, the
// full machine size and the documented load — with every job's actual run
// time redrawn from --seed (jitter_runtimes). It is written to
// <inputs>/<workload>-s<seed>/<trace>_sample.swf once; a file with the same
// bytes is reused, and one another generator wrote is replaced.
// The written file is read back through load_trace() — the path the
// measured programs take — and the program fails if validate_trace()
// reports any issue with it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <sstream>

#include "sdbench.h"
#include "util/rng.h"
#include "workload/swf.h"

namespace {

constexpr double kRuntimeJitter = 0.01;

/// The seed's share of an input: each job's actual run time is redrawn
/// within ±kRuntimeJitter of the base trace's, kept within [1 s, request].
/// Arrivals, sizes and requests — everything the scheduler plans with —
/// stay the base trace's, so every seed makes different decisions on a
/// workload of one shape. Drawing the whole trace from the seed instead
/// moves throughput and the paper metrics between seeds by far more than
/// any regression bound (README.md, "Seeds").
void jitter_runtimes(sdsched::Workload& workload, std::uint64_t seed) {
  sdsched::Rng rng(seed);
  for (auto& spec : workload.mutable_jobs()) {
    const double factor = rng.uniform(1.0 - kRuntimeJitter, 1.0 + kRuntimeJitter);
    const auto runtime = static_cast<sdsched::SimTime>(
        std::llround(static_cast<double>(spec.base_runtime) * factor));
    spec.base_runtime = std::clamp<sdsched::SimTime>(runtime, 1, spec.req_time);
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const sdbench::Options options = sdbench::Options::parse(argc, argv);
    const std::string path = options.input_path();
    const sdsched::TraceInfo* info = sdsched::find_trace(options.workload->trace);
    sdsched::Workload workload = sdsched::synthesize_soak(*info, options.workload->jobs);
    jitter_runtimes(workload, options.seed);
    std::ostringstream swf;
    sdsched::write_swf(swf, workload);
    // Reuse the file unless a different generator wrote it. Write then
    // rename, so an interrupted run never leaves a truncated input behind.
    if (sdbench::read_file(path) != swf.str()) {
      std::filesystem::create_directories(options.input_dir());
      const std::string partial = path + ".partial";
      sdsched::write_text_file(partial, swf.str());
      std::filesystem::rename(partial, path);
    }
    const sdsched::LoadedTrace loaded = sdbench::load_input(options);
    if (!loaded.from_fixture || !loaded.validation.ok) {
      for (const auto& issue : loaded.validation.issues) {
        std::fprintf(stderr, "sdbench_gen: %s: %s\n", path.c_str(), issue.c_str());
      }
      std::fprintf(stderr, "sdbench_gen: %s failed validation\n", path.c_str());
      return 1;
    }
    const sdbench::InputDigest digest = sdbench::digest_input(path);
    std::printf("input %s: %zu rows, fnv1a %s\n", path.c_str(), digest.rows,
                sdbench::hex(digest.fnv1a).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sdbench_gen: %s\n", e.what());
    return 1;
  }
}

// Workload characterization: the trace-side columns of Table 1 plus the
// distribution summaries used to sanity-check generated traces.
#pragma once

#include <string>

#include "workload/workload.h"

namespace sdsched {

struct WorkloadStats {
  std::string name;
  std::size_t n_jobs = 0;
  int system_nodes = 0;
  int system_cores = 0;
  int max_job_nodes = 0;
  int max_job_cpus = 0;
  SimTime submit_span = 0;
  double mean_runtime = 0.0;
  double median_runtime = 0.0;
  double offered_load = 0.0;
  double request_accuracy = 0.0;  ///< mean(base_runtime / req_time), 1 = exact
  double pct_malleable = 0.0;

  // Submit-burst structure. Real logs (scripted submissions, array jobs)
  // carry heavy same-second submit bursts that synthetic Poisson arrivals
  // lack; these drive the kernel's burst coalescing, so trace validation
  // checks them explicitly.
  std::size_t distinct_submit_times = 0;
  std::size_t same_time_submits = 0;  ///< jobs sharing a submit second with another job
  std::size_t max_submit_burst = 0;   ///< largest same-second submit group
};

[[nodiscard]] WorkloadStats characterize(const Workload& workload);

/// Multi-line human-readable rendering.
[[nodiscard]] std::string to_string(const WorkloadStats& stats);

}  // namespace sdsched

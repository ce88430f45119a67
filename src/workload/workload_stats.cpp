#include "workload/workload_stats.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "util/stats.h"
#include "util/time_utils.h"

namespace sdsched {

WorkloadStats characterize(const Workload& workload) {
  WorkloadStats stats;
  stats.name = workload.info().name;
  stats.n_jobs = workload.size();
  stats.system_nodes = workload.info().system_nodes;
  stats.system_cores = workload.info().system_nodes * workload.info().cores_per_node;
  if (workload.empty()) return stats;

  OnlineStats runtime_stats;
  OnlineStats accuracy;
  std::vector<double> runtimes;
  runtimes.reserve(workload.size());
  SimTime first = workload.jobs().front().submit;
  SimTime last = first;
  std::size_t malleable = 0;
  // Ordered map: the burst aggregates below are order-independent sums, but
  // iterating a hash map here was the one unordered iteration in src/ — an
  // std::map keeps the loop deterministic by construction (detlint D1).
  std::map<SimTime, std::size_t> submit_groups;
  for (const auto& spec : workload.jobs()) {
    runtime_stats.add(static_cast<double>(spec.base_runtime));
    runtimes.push_back(static_cast<double>(spec.base_runtime));
    accuracy.add(static_cast<double>(spec.base_runtime) /
                 static_cast<double>(std::max<SimTime>(spec.req_time, 1)));
    first = std::min(first, spec.submit);
    last = std::max(last, spec.submit);
    stats.max_job_nodes = std::max(stats.max_job_nodes, spec.req_nodes);
    stats.max_job_cpus = std::max(stats.max_job_cpus, spec.req_cpus);
    if (spec.malleability == MalleabilityClass::Malleable) ++malleable;
    ++submit_groups[spec.submit];
  }
  stats.distinct_submit_times = submit_groups.size();
  for (const auto& [time, count] : submit_groups) {
    if (count > 1) stats.same_time_submits += count;
    stats.max_submit_burst = std::max(stats.max_submit_burst, count);
  }
  stats.submit_span = last - first;
  stats.mean_runtime = runtime_stats.mean();
  stats.median_runtime = median_of(std::move(runtimes));
  stats.offered_load = workload.offered_load(stats.system_cores);
  stats.request_accuracy = accuracy.mean();
  stats.pct_malleable =
      static_cast<double>(malleable) / static_cast<double>(workload.size());
  return stats;
}

std::string to_string(const WorkloadStats& stats) {
  std::ostringstream oss;
  oss << "workload " << stats.name << ": " << stats.n_jobs << " jobs on "
      << stats.system_nodes << " nodes (" << stats.system_cores << " cores)\n"
      << "  max job: " << stats.max_job_nodes << " nodes / " << stats.max_job_cpus
      << " cpus\n"
      << "  submit span: " << format_duration(stats.submit_span) << "\n"
      << "  runtime mean/median: " << format_duration(static_cast<SimTime>(stats.mean_runtime))
      << " / " << format_duration(static_cast<SimTime>(stats.median_runtime)) << "\n"
      << "  offered load: " << stats.offered_load
      << ", request accuracy: " << stats.request_accuracy
      << ", malleable: " << stats.pct_malleable * 100.0 << "%\n"
      << "  submit bursts: " << stats.same_time_submits << " jobs in same-second groups"
      << " (max burst " << stats.max_submit_burst << ", " << stats.distinct_submit_times
      << " distinct times)\n";
  return oss.str();
}

}  // namespace sdsched

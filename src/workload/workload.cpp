#include "workload/workload.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "workload/swf.h"

namespace sdsched {

namespace {

/// The SWF readers' time bound, applied to API input too: a submit near
/// INT64_MAX would otherwise overflow the event clock.
void check_time_field(std::size_t index, const char* field, SimTime value) {
  if (value >= -kSwfMaxSeconds && value <= kSwfMaxSeconds) return;
  throw std::invalid_argument("Workload job " + std::to_string(index) + ": " + field + " " +
                              std::to_string(value) + " is beyond +/-" +
                              std::to_string(kSwfMaxSeconds));
}

}  // namespace

const std::vector<JobSpec>& Workload::jobs() const noexcept {
  static const std::vector<JobSpec> kEmpty;
  return jobs_ ? *jobs_ : kEmpty;
}

std::vector<JobSpec>& Workload::detach() {
  prepared_ = false;
  if (!jobs_ || jobs_.use_count() > 1) {
    jobs_ = jobs_ ? std::make_shared<std::vector<JobSpec>>(*jobs_)
                  : std::make_shared<std::vector<JobSpec>>();
  }
  // Exclusively owned here, and every pointee is created via
  // make_shared<std::vector<...>> (non-const object), so shedding the const
  // view is defined behaviour.
  return const_cast<std::vector<JobSpec>&>(*jobs_);
}

void Workload::normalize() {
  auto& jobs = detach();
  std::stable_sort(jobs.begin(), jobs.end(), [](const JobSpec& a, const JobSpec& b) {
    return a.submit != b.submit ? a.submit < b.submit : a.id < b.id;
  });
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<JobId>(i);
  }
}

std::size_t Workload::prepare_for(int system_nodes, int cores_per_node) {
  if (prepared_for(system_nodes, cores_per_node)) return 0;
  for (std::size_t i = 0; i < size(); ++i) {
    const JobSpec& spec = jobs()[i];
    check_time_field(i, "submit", spec.submit);
    check_time_field(i, "base_runtime", spec.base_runtime);
    check_time_field(i, "req_time", spec.req_time);
  }
  info_.system_nodes = system_nodes;
  info_.cores_per_node = cores_per_node;
  const int max_cpus = system_nodes * cores_per_node;
  std::vector<JobSpec> kept;
  kept.reserve(size());
  std::size_t dropped = 0;
  for (JobSpec spec : jobs()) {
    if (spec.base_runtime <= 0 || spec.req_cpus <= 0) {
      ++dropped;
      continue;
    }
    spec.req_cpus = std::min(spec.req_cpus, max_cpus);
    spec.req_nodes = nodes_for(spec.req_cpus, cores_per_node);
    if (spec.req_time <= 0) spec.req_time = spec.base_runtime;
    spec.req_time = std::max(spec.req_time, spec.base_runtime);
    spec.ranks_per_node = std::max(1, std::min(spec.ranks_per_node, cores_per_node));
    kept.push_back(spec);
  }
  detach() = std::move(kept);
  normalize();
  prepared_ = true;
  return dropped;
}

double Workload::total_work_core_seconds() const noexcept {
  double total = 0.0;
  for (const auto& spec : jobs()) {
    total += static_cast<double>(spec.base_runtime) * static_cast<double>(spec.req_cpus);
  }
  return total;
}

double Workload::offered_load(int total_cores) const noexcept {
  const auto& jobs = this->jobs();
  if (jobs.empty() || total_cores <= 0) return 0.0;
  const auto [min_it, max_it] =
      std::minmax_element(jobs.begin(), jobs.end(), [](const JobSpec& a, const JobSpec& b) {
        return a.submit < b.submit;
      });
  const auto span = static_cast<double>(max_it->submit - min_it->submit);
  if (span <= 0.0) return 0.0;
  return total_work_core_seconds() / (static_cast<double>(total_cores) * span);
}

}  // namespace sdsched

#include "job/priority.h"

#include <algorithm>


namespace sdsched {

double job_priority(const PriorityConfig& config, const JobSpec& spec, SimTime now) noexcept {
  switch (config.kind) {
    case PriorityKind::Fcfs:
      // Smaller submit == higher priority; expressed as a negated timestamp
      // so "higher is better" holds uniformly.
      return -static_cast<double>(spec.submit);
    case PriorityKind::SmallestFirst:
      return -static_cast<double>(spec.req_nodes);
    case PriorityKind::Multifactor: {
      const auto waited = static_cast<double>(std::max<SimTime>(now - spec.submit, 0));
      const double age_factor =
          std::min(waited / static_cast<double>(std::max<SimTime>(config.age_saturation, 1)),
                   1.0);
      const double size_factor =
          static_cast<double>(spec.req_nodes) / std::max(1, config.machine_nodes);
      return config.age_weight * age_factor + config.size_weight * size_factor;
    }
  }
  return 0.0;
}

void sort_by_priority(const PriorityConfig& config, const JobRegistry& jobs, SimTime now,
                      std::vector<JobId>& ids) {
  if (config.kind == PriorityKind::Fcfs) return;  // FCFS order is the input order
  std::stable_sort(ids.begin(), ids.end(), [&](JobId a, JobId b) {
    return job_priority(config, jobs.at(a).spec, now) >
           job_priority(config, jobs.at(b).spec, now);
  });
}

}  // namespace sdsched

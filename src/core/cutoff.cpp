#include "core/cutoff.h"

#include <algorithm>
#include <limits>

namespace sdsched {

double estimated_running_slowdown(const Job& job, SimTime now) noexcept {
  const auto req = static_cast<double>(std::max<SimTime>(job.spec.req_time, 1));
  const auto wait = static_cast<double>(job.wait_time(now));
  const auto increase = static_cast<double>(job.predicted_increase);
  return (wait + increase + req) / req;
}

double compute_cutoff(const CutoffConfig& config, const JobRegistry& jobs,
                      const std::vector<JobId>& running, SimTime now) {
  if (config.kind != CutoffKind::DynamicAverage) {
    return config.kind == CutoffKind::Infinite ? std::numeric_limits<double>::infinity()
                                               : config.value;
  }
  double sum = 0.0;
  std::size_t count = 0;
  for (const JobId id : running) {
    const Job& job = jobs.at(id);
    if (!job.running()) continue;  // tolerate a stale entry
    sum += estimated_running_slowdown(job, now);
    ++count;
  }
  if (count == 0) return std::numeric_limits<double>::infinity();
  return sum / static_cast<double>(count);
}

}  // namespace sdsched

#include "model/progress.h"

#include <cassert>
#include <cmath>

namespace sdsched {

void ProgressTracker::settle(Job& job, SimTime now) const noexcept {
  assert(now >= job.last_progress_update);
  const auto elapsed = static_cast<double>(now - job.last_progress_update);
  job.work_done += elapsed * job.rate;
  job.last_progress_update = now;
}

void ProgressTracker::set_rate_from_shares(Job& job, double contention_multiplier) const noexcept {
  job.rate = progress_rate(kind_, job.shares, job.spec.req_cpus) * contention_multiplier;
}

SimTime ProgressTracker::remaining_wallclock(const Job& job) const noexcept {
  const double remaining_work = static_cast<double>(job.spec.base_runtime) - job.work_done;
  if (remaining_work <= 0.0) return 0;
  assert(job.rate > 0.0);
  return static_cast<SimTime>(std::ceil(remaining_work / job.rate));
}

}  // namespace sdsched

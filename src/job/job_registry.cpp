#include "job/job_registry.h"

namespace sdsched {

JobId JobRegistry::add(JobSpec spec) {
  const auto id = static_cast<JobId>(jobs_.size());
  if (spec.id == kInvalidJob) {
    spec.id = id;
  }
  assert(spec.id == id && "JobRegistry requires dense, in-order ids");
  Job job;
  job.spec = spec;
  jobs_.push_back(std::move(job));
  return id;
}

}  // namespace sdsched

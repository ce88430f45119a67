// Dense job storage indexed by JobId.
#pragma once

#include <cassert>
#include <vector>

#include "job/job.h"

namespace sdsched {

class JobRegistry {
 public:
  /// Add a job; its spec.id must equal its index (enforced, or assigned if
  /// the spec carries kInvalidJob).
  JobId add(JobSpec spec);

  [[nodiscard]] Job& at(JobId id) {
    assert(id < jobs_.size());
    return jobs_[id];
  }
  [[nodiscard]] const Job& at(JobId id) const {
    assert(id < jobs_.size());
    return jobs_[id];
  }

  [[nodiscard]] std::size_t size() const noexcept { return jobs_.size(); }
  [[nodiscard]] auto begin() noexcept { return jobs_.begin(); }
  [[nodiscard]] auto end() noexcept { return jobs_.end(); }
  [[nodiscard]] auto begin() const noexcept { return jobs_.begin(); }
  [[nodiscard]] auto end() const noexcept { return jobs_.end(); }

 private:
  std::vector<Job> jobs_;
};

}  // namespace sdsched

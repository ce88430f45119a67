#include "core/mate_registry.h"

#include <algorithm>
#include <sstream>

namespace sdsched {

namespace {

void insert_sorted(std::vector<JobId>& ids, JobId id) {
  // Ids arrive mostly in ascending order (the registry assigns them
  // densely), so the push_back fast path dominates.
  if (ids.empty() || ids.back() < id) {
    ids.push_back(id);
    return;
  }
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it != ids.end() && *it == id) return;
  ids.insert(it, id);
}

void erase_sorted(std::vector<JobId>& ids, JobId id) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it != ids.end() && *it == id) ids.erase(it);
}

}  // namespace

bool MateRegistry::is_mate(const Job& job) const noexcept {
  return job.running() && job.can_be_mate() && !job.started_as_guest &&
         static_cast<int>(job.guests.size()) < max_jobs_per_node_ - 1;
}

void MateRegistry::sync_mate(const Job& job) {
  if (is_mate(job)) {
    insert_sorted(mates_, job.spec.id);
  } else {
    erase_sorted(mates_, job.spec.id);
  }
}

void MateRegistry::seed(const JobRegistry& jobs) {
  running_.clear();
  mates_.clear();
  for (const Job& job : jobs) {
    if (!job.running()) continue;
    running_.push_back(job.spec.id);
    if (is_mate(job)) mates_.push_back(job.spec.id);
  }
}

void MateRegistry::on_start(const Job& job, const JobRegistry& jobs) {
  insert_sorted(running_, job.spec.id);
  sync_mate(job);
  // Only a guest has mates; each one it joined may now be full.
  for (const JobId mate : job.mates) sync_mate(jobs.at(mate));
}

void MateRegistry::on_finish(const Job& job, const JobRegistry& jobs) {
  erase_sorted(running_, job.spec.id);
  erase_sorted(mates_, job.spec.id);
  // A finished guest's `mates` still names the survivors (a mate that
  // finished first was erased from it), each now one guest lighter.
  for (const JobId mate : job.mates) sync_mate(jobs.at(mate));
}

bool MateRegistry::check_consistent(const JobRegistry& jobs,
                                    std::string* diagnosis) const {
  std::vector<JobId> expect_running;
  std::vector<JobId> expect_mates;
  for (const Job& job : jobs) {
    if (!job.running()) continue;
    expect_running.push_back(job.spec.id);
    if (is_mate(job)) expect_mates.push_back(job.spec.id);
  }
  const auto fail = [diagnosis](const char* which, std::size_t have, std::size_t want) {
    if (diagnosis != nullptr) {
      std::ostringstream oss;
      oss << "mate registry " << which << " set diverged from the job scan (indexed "
          << have << " ids, scanned " << want << ")";
      *diagnosis = oss.str();
    }
    return false;
  };
  if (running_ != expect_running) {
    return fail("running", running_.size(), expect_running.size());
  }
  if (mates_ != expect_mates) return fail("mate", mates_.size(), expect_mates.size());
  return true;
}

}  // namespace sdsched

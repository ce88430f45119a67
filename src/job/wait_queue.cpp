#include "job/wait_queue.h"

#include <algorithm>
#include <cassert>

#include "job/job_registry.h"

namespace sdsched {

void WaitQueue::push(JobId id, SimTime submit) {
  const Entry entry{submit, id};
  cache_dirty_ = true;
  if (entries_.empty() || entries_.back().submit < submit ||
      (entries_.back().submit == submit && entries_.back().id < id)) {
    entries_.push_back(entry);
    return;
  }
  const auto pos = std::lower_bound(
      entries_.begin(), entries_.end(), entry, [](const Entry& a, const Entry& b) {
        return a.submit != b.submit ? a.submit < b.submit : a.id < b.id;
      });
  entries_.insert(pos, entry);
}

bool WaitQueue::remove(JobId id) {
  const auto it = std::find_if(entries_.begin(), entries_.end(),
                               [id](const Entry& e) { return e.id == id; });
  if (it == entries_.end()) return false;
  entries_.erase(it);
  cache_dirty_ = true;
  return true;
}

bool WaitQueue::contains(JobId id) const noexcept {
  return std::any_of(entries_.begin(), entries_.end(),
                     [id](const Entry& e) { return e.id == id; });
}

const std::vector<JobId>& WaitQueue::scheduling_order(SimTime now) const {
  const bool time_dependent = config_.kind == PriorityKind::Multifactor;
  if (!cache_dirty_ && (!time_dependent || cache_now_ == now)) return cache_;

  cache_.clear();
  cache_.reserve(entries_.size());
  for (const auto& entry : entries_) cache_.push_back(entry.id);
  if (config_.kind != PriorityKind::Fcfs) {
    assert(jobs_ != nullptr && "non-FCFS priority needs configure(..., &registry)");
    sort_by_priority(config_, *jobs_, now, cache_);
  }
  cache_dirty_ = false;
  cache_now_ = now;
  return cache_;
}

}  // namespace sdsched

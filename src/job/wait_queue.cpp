#include "job/wait_queue.h"

#include <algorithm>

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

const std::vector<JobId>& WaitQueue::scheduling_order() const {
  if (!cache_dirty_) return cache_;
  cache_.clear();
  cache_.reserve(entries_.size());
  for (const auto& entry : entries_) cache_.push_back(entry.id);
  cache_dirty_ = false;
  return cache_;
}

}  // namespace sdsched

// Wait queue in scheduling order (SLURM's FIFO priority, the paper's §3.1
// setting).
//
// Jobs are kept in (submit, id) arrival order incrementally — O(log n)
// ordered insert, O(1) amortized for the common in-order arrival — and that
// order is the scheduling order. The queue keeps a cached copy of it as the
// pass view, rebuilt only after a push/remove, so a scheduling pass over an
// unchanged queue does not copy it.
//
// remove() only marks the cache dirty, it never mutates the cached vector:
// a pass may keep iterating the view returned by scheduling_order() while
// removing the jobs it starts (the snapshot-per-pass semantics schedulers
// have always relied on).
#pragma once

#include <vector>

#include "sim/event.h"
#include "util/time_utils.h"

namespace sdsched {

class WaitQueue {
 public:
  /// Insert keeping (submit, id) order. O(n) worst case, O(1) for the common
  /// in-order arrival.
  void push(JobId id, SimTime submit);

  /// Remove a job wherever it sits. Returns false if absent. Invalidates the
  /// scheduling-order cache lazily (see header comment).
  bool remove(JobId id);

  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool contains(JobId id) const noexcept;

  /// Oldest job in arrival order. Requires !empty().
  [[nodiscard]] JobId front() const { return entries_.front().id; }

  /// Ids in scheduling (arrival) order. The returned view stays valid (and
  /// fixed) across remove() calls; it is refreshed only on the next
  /// scheduling_order() call after a change.
  [[nodiscard]] const std::vector<JobId>& scheduling_order() const;

 private:
  struct Entry {
    SimTime submit;
    JobId id;
  };
  std::vector<Entry> entries_;  ///< always in (submit, id) order

  mutable std::vector<JobId> cache_;   ///< scheduling-order view
  mutable bool cache_dirty_ = true;
};

}  // namespace sdsched

// Wait queue in scheduling order (SLURM priority queue).
//
// Jobs are kept in (submit, id) arrival order incrementally — O(log n)
// ordered insert, O(1) amortized for the common in-order arrival — and the
// queue additionally maintains a cached *scheduling-order* view for the
// configured priority policy, so a scheduling pass no longer sorts (or even
// copies) the queue when nothing changed since the last pass:
//  * Fcfs: the cache is the arrival order itself;
//  * SmallestFirst (and any other time-independent priority): the cache is
//    re-sorted only after a push/remove invalidates it;
//  * Multifactor: priorities depend on `now` (the age factor saturates), so
//    the cache is additionally keyed by the time it was computed at —
//    same-timestamp passes still reuse it.
//
// remove() only marks the cache dirty, it never mutates the cached vector:
// a pass may keep iterating the view returned by scheduling_order() while
// removing the jobs it starts (the snapshot-per-pass semantics schedulers
// have always relied on).
#pragma once

#include <vector>

#include "job/priority.h"
#include "sim/event.h"
#include "util/time_utils.h"

namespace sdsched {

class JobRegistry;

class WaitQueue {
 public:
  /// Install the priority policy the scheduling-order cache follows. The
  /// registry is needed for priorities that read job specs (size, age);
  /// an unconfigured queue behaves as plain FCFS.
  void configure(const PriorityConfig& config, const JobRegistry* jobs) noexcept {
    config_ = config;
    jobs_ = jobs;
    cache_dirty_ = true;
  }

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

  /// Ids in scheduling order under the configured priority at `now`. The
  /// returned view stays valid (and fixed) across remove() calls; it is
  /// refreshed only on the next scheduling_order() call after a change.
  [[nodiscard]] const std::vector<JobId>& scheduling_order(SimTime now) const;

 private:
  struct Entry {
    SimTime submit;
    JobId id;
  };
  std::vector<Entry> entries_;  ///< always in (submit, id) order

  PriorityConfig config_;
  const JobRegistry* jobs_ = nullptr;

  mutable std::vector<JobId> cache_;   ///< scheduling-order view
  mutable bool cache_dirty_ = true;
  mutable SimTime cache_now_ = -1;     ///< Multifactor: time the cache is valid for
};

}  // namespace sdsched

#include "sched/reservation.h"

#include <algorithm>
#include <cassert>

namespace sdsched {

namespace {

/// start + max(duration, 1), saturated at kForever without overflow.
SimTime window_end(SimTime start, SimTime duration) {
  duration = std::max<SimTime>(duration, 1);
  return start >= ReservationProfile::kForever - duration ? ReservationProfile::kForever
                                                         : start + duration;
}

}  // namespace

void ReservationProfile::set_base(int capacity, SimTime origin,
                                  const std::vector<std::pair<SimTime, int>>& busy_groups) {
  capacity_ = capacity;
  base_times_.clear();
  base_free_.clear();
  if (!busy_groups.empty()) {
    int busy = 0;
    for (const auto& [free_at, nodes] : busy_groups) {
      assert(free_at > origin && "busy group must release after the pass origin");
      assert(nodes > 0);
      (void)free_at;
      busy += nodes;
    }
    int free = capacity - busy;
    base_times_.push_back(origin);
    base_free_.push_back(free);
    for (const auto& [free_at, nodes] : busy_groups) {
      assert(base_times_.back() < free_at && "busy groups must be strictly ascending");
      free += nodes;
      base_times_.push_back(free_at);
      base_free_.push_back(free);
    }
    assert(free == capacity && "base snapshot must drain back to capacity");
  }
  times_ = base_times_;
  free_ = base_free_;
  reserved_ = false;
}

void ReservationProfile::clear_overlay() {
  if (!reserved_) return;
  times_ = base_times_;
  free_ = base_free_;
  reserved_ = false;
}

std::size_t ReservationProfile::first_after(SimTime t) const {
  return static_cast<std::size_t>(std::upper_bound(times_.begin(), times_.end(), t) -
                                  times_.begin());
}

std::size_t ReservationProfile::split_at(SimTime t) {
  const auto i = static_cast<std::size_t>(
      std::lower_bound(times_.begin(), times_.end(), t) - times_.begin());
  if (i == times_.size() || times_[i] != t) {
    free_.insert(free_.begin() + static_cast<std::ptrdiff_t>(i), free_before(i));
    times_.insert(times_.begin() + static_cast<std::ptrdiff_t>(i), t);
  }
  return i;
}

void ReservationProfile::reserve(SimTime start, SimTime end, int nodes) {
  assert(nodes >= 0);
  if (start >= end || nodes == 0) return;
  reserved_ = true;
  const std::size_t first = split_at(start);
  const std::size_t last = end < kForever ? split_at(end) : times_.size();
  for (std::size_t i = first; i < last; ++i) free_[i] -= nodes;
}

int ReservationProfile::available_at(SimTime t) const { return free_before(first_after(t)); }

int ReservationProfile::min_available(SimTime start, SimTime duration) const {
  const SimTime end = window_end(start, duration);
  std::size_t next = first_after(start);
  int min_free = free_before(next);
  for (; next < times_.size() && times_[next] < end; ++next) {
    min_free = std::min(min_free, free_[next]);
  }
  return min_free;
}

bool ReservationProfile::fits(int nodes, SimTime duration, SimTime start) const {
  if (nodes > capacity_) return false;
  if (nodes <= 0) return true;
  const SimTime end = window_end(start, duration);
  std::size_t next = first_after(start);
  if (free_before(next) < nodes) return false;
  for (; next < times_.size() && times_[next] < end; ++next) {
    if (free_[next] < nodes) return false;
  }
  return true;
}

SimTime ReservationProfile::earliest_start(int nodes, SimTime duration,
                                           SimTime not_before) const {
  if (nodes > capacity_) return kNever;
  if (nodes <= 0) return not_before;
  const std::size_t n = times_.size();
  std::size_t next = first_after(not_before);
  SimTime candidate = not_before;
  bool feasible = free_before(next) >= nodes;
  for (;;) {
    if (!feasible) {
      // Seek the first step with enough free nodes; it opens the next
      // candidate window. Steps at or past kForever never open one.
      while (next < n && free_[next] < nodes) ++next;
      if (next == n || times_[next] >= kForever) return kNever;
      candidate = times_[next++];
    }
    // Walk the window until it closes (the candidate wins) or dips.
    const SimTime end = window_end(candidate, duration);
    while (next < n && times_[next] < end && free_[next] >= nodes) ++next;
    if (next == n || times_[next] >= end) return candidate;
    feasible = false;
  }
}

}  // namespace sdsched

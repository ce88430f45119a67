#include "sched/reservation.h"

#include <algorithm>
#include <cassert>

namespace sdsched {

void ReservationProfile::set_base(int capacity, SimTime origin,
                                  const std::vector<std::pair<SimTime, int>>& busy_groups) {
  capacity_ = capacity;
  overlay_.clear();
  base_.clear();
  if (busy_groups.empty()) return;

  int busy = 0;
  for (const auto& [free_at, nodes] : busy_groups) {
    assert(free_at > origin && "busy group must release after the pass origin");
    assert(nodes > 0);
    (void)free_at;
    busy += nodes;
  }
  base_.reserve(busy_groups.size() + 1);
  int free = capacity - busy;
  base_.push_back(Step{origin, free});
  for (const auto& [free_at, nodes] : busy_groups) {
    assert(base_.back().time < free_at && "busy groups must be strictly ascending");
    free += nodes;
    base_.push_back(Step{free_at, free});
  }
  assert(free == capacity && "base snapshot must drain back to capacity");
}

int ReservationProfile::base_free_at(SimTime t, std::size_t* step_index) const {
  const auto it = std::upper_bound(
      base_.begin(), base_.end(), t,
      [](SimTime value, const Step& step) { return value < step.time; });
  if (step_index != nullptr) *step_index = static_cast<std::size_t>(it - base_.begin());
  return it == base_.begin() ? capacity_ : std::prev(it)->free;
}

void ReservationProfile::reserve(SimTime start, SimTime end, int nodes) {
  assert(nodes >= 0);
  if (start >= end || nodes == 0) return;
  const auto apply = [this](SimTime time, int d) {
    const auto it = std::lower_bound(
        overlay_.begin(), overlay_.end(), time,
        [](const std::pair<SimTime, int>& e, SimTime value) { return e.first < value; });
    if (it != overlay_.end() && it->first == time) {
      it->second += d;
      if (it->second == 0) overlay_.erase(it);
    } else {
      overlay_.insert(it, {time, d});
    }
  };
  apply(start, -nodes);
  if (end < kForever) apply(end, nodes);
}

ReservationProfile::Sweep ReservationProfile::sweep_at(SimTime t) const {
  // Binary search into the base, linear prefix over the small overlay.
  Sweep sweep;
  sweep.base_free = base_free_at(t, &sweep.bi);
  while (sweep.oi < overlay_.size() && overlay_[sweep.oi].first <= t) {
    sweep.overlay_sum += overlay_[sweep.oi].second;
    ++sweep.oi;
  }
  return sweep;
}

SimTime ReservationProfile::next_breakpoint(const Sweep& sweep) const noexcept {
  SimTime next = kForever;
  if (sweep.bi < base_.size()) next = base_[sweep.bi].time;
  if (sweep.oi < overlay_.size()) next = std::min(next, overlay_[sweep.oi].first);
  return next;
}

void ReservationProfile::advance_to(Sweep& sweep, SimTime t) const noexcept {
  while (sweep.bi < base_.size() && base_[sweep.bi].time == t) {
    sweep.base_free = base_[sweep.bi++].free;
  }
  while (sweep.oi < overlay_.size() && overlay_[sweep.oi].first == t) {
    sweep.overlay_sum += overlay_[sweep.oi++].second;
  }
}

int ReservationProfile::available_at(SimTime t) const { return sweep_at(t).free(); }

int ReservationProfile::min_available(SimTime start, SimTime duration) const {
  duration = std::max<SimTime>(duration, 1);
  const SimTime end = start + duration;

  Sweep sweep = sweep_at(start);
  int min_free = sweep.free();
  for (SimTime t = next_breakpoint(sweep); t < end; t = next_breakpoint(sweep)) {
    advance_to(sweep, t);
    min_free = std::min(min_free, sweep.free());
  }
  return min_free;
}

bool ReservationProfile::fits(int nodes, SimTime duration, SimTime start) const {
  if (nodes > capacity_) return false;
  if (nodes <= 0) return true;
  const SimTime end = std::min(start + std::max<SimTime>(duration, 1), kForever);

  Sweep sweep = sweep_at(start);
  if (sweep.free() < nodes) return false;
  for (SimTime t = next_breakpoint(sweep); t < end; t = next_breakpoint(sweep)) {
    advance_to(sweep, t);
    if (sweep.free() < nodes) return false;
  }
  return true;
}

SimTime ReservationProfile::earliest_start(int nodes, SimTime duration,
                                           SimTime not_before) const {
  if (nodes > capacity_) return kNever;
  if (nodes <= 0) return not_before;
  duration = std::max<SimTime>(duration, 1);

  // Sweep the merged step function from not_before, tracking the earliest
  // candidate start whose window [candidate, candidate + duration) stays
  // feasible.
  Sweep sweep = sweep_at(not_before);
  SimTime candidate = not_before;
  bool feasible = sweep.free() >= nodes;

  for (SimTime t = next_breakpoint(sweep); t < kForever; t = next_breakpoint(sweep)) {
    if (feasible && t >= candidate + duration) {
      return candidate;  // window closed before this breakpoint
    }
    advance_to(sweep, t);
    if (sweep.free() >= nodes) {
      if (!feasible) {
        candidate = t;
        feasible = true;
      }
    } else {
      feasible = false;
    }
  }
  // After the last breakpoint the profile stays constant; if feasible the
  // current candidate works, otherwise it never becomes feasible — but the
  // invariant "profiles drain back to capacity" makes that impossible for
  // nodes <= capacity unless permanent reservations exist.
  return feasible ? candidate : kNever;
}

}  // namespace sdsched

// Node-availability profile ("map of jobs reservations in time", §3.1).
//
// A piecewise-constant step function of free whole nodes over time, held as
// one sorted step array: `times_[i]` is where a step begins and `free_[i]`
// the free-node count that holds until the next step (capacity before the
// first). Scheduling passes stop rebuilding the world by keeping a saved
// copy of the **base snapshot** — the running jobs' predicted releases,
// installed via set_base() from the ClusterStateIndex and *reused* across
// passes while the cluster is unchanged:
//
//  * reserve() materializes a pass's own reservation in the array: it
//    splits the steps at its start and end and subtracts from those between;
//  * clear_overlay() copies the saved base back, and only when the pass
//    reserved something.
//
// Every query is one binary search plus forward loops over the array. Both
// the backfill baseline and the SD-Policy's static_end estimate (Listing 1)
// read this profile.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/time_utils.h"

namespace sdsched {

class ReservationProfile {
 public:
  ReservationProfile() = default;

  /// Profile with `capacity` nodes free everywhere (before carving).
  explicit ReservationProfile(int capacity) noexcept : capacity_(capacity) {}

  [[nodiscard]] int capacity() const noexcept { return capacity_; }

  /// Install the base snapshot: `busy_groups` is an ascending (free_at,
  /// nodes) sequence meaning `nodes` nodes stay busy over [origin, free_at).
  /// Every free_at must be > origin. Drops every reservation.
  void set_base(int capacity, SimTime origin,
                const std::vector<std::pair<SimTime, int>>& busy_groups);

  /// Drop the pass's own reservations, keeping the base snapshot.
  void clear_overlay();

  /// Remove `nodes` of availability over [start, end). end may be kForever.
  /// Callers reserve only what earliest_start() said was free.
  void reserve(SimTime start, SimTime end, int nodes);

  /// Free nodes at time t.
  [[nodiscard]] int available_at(SimTime t) const;

  /// Minimum free-node count over the whole window [start, start + duration)
  /// (duration clamped to 1) — the largest request that could run there.
  [[nodiscard]] int min_available(SimTime start, SimTime duration) const;

  /// Earliest t >= not_before with `nodes` free during the whole window
  /// [t, t + duration). Always exists (profiles drain back to capacity)
  /// unless nodes > capacity, which returns kNever.
  [[nodiscard]] SimTime earliest_start(int nodes, SimTime duration, SimTime not_before) const;

  /// Whether `nodes` are free during the whole window [start, start +
  /// duration) (duration clamped to 1): for start >= 0 exactly
  /// earliest_start(nodes, duration, start) == start, but the sweep stops
  /// at the first step that falls short.
  [[nodiscard]] bool fits(int nodes, SimTime duration, SimTime start) const;

  /// Distinct step times currently held (base and reservations merged) —
  /// observability for the scheduler microbench.
  [[nodiscard]] std::size_t breakpoint_count() const noexcept { return times_.size(); }

  /// Earliest base release (kForever when the base is flat). A snapshot
  /// built at pass time t0 stays valid at a later pass time t1 only while
  /// t1 < first_release_time(): the first release crossing `now` re-clamps
  /// overdue occupants, so the scheduler must refresh its base then.
  [[nodiscard]] SimTime first_release_time() const noexcept {
    return base_times_.size() > 1 ? base_times_[1] : kForever;
  }

  /// Window ends saturate here: every duration reaching past it (up to
  /// INT64_MAX) behaves as a window that never closes.
  static constexpr SimTime kForever = INT64_MAX / 4;
  static constexpr SimTime kNever = -1;

 private:
  /// Index of the first step strictly after t (== times_.size() if none).
  [[nodiscard]] std::size_t first_after(SimTime t) const;
  /// Free count over the step before `next` (capacity before the first).
  [[nodiscard]] int free_before(std::size_t next) const noexcept {
    return next == 0 ? capacity_ : free_[next - 1];
  }
  /// Index of the step beginning at t, inserted with the count that held
  /// there if absent.
  std::size_t split_at(SimTime t);

  int capacity_ = 0;
  std::vector<SimTime> times_;       ///< ascending, distinct step starts
  std::vector<int> free_;            ///< free nodes from times_[i] on
  std::vector<SimTime> base_times_;  ///< saved base snapshot (set_base)
  std::vector<int> base_free_;
  bool reserved_ = false;            ///< reservations since the last restore
};

}  // namespace sdsched

// Node-availability profile ("map of jobs reservations in time", §3.1).
//
// A piecewise-constant step function of free whole nodes over time, split
// into two layers so scheduling passes stop rebuilding the world:
//
//  * a **base snapshot** — flat, sorted, cumulative free-count breakpoints
//    describing the running jobs' predicted releases. Installed via
//    set_base() from the ClusterStateIndex and *reused*
//    across passes while the cluster is unchanged;
//  * a **pass overlay** — a small sorted delta vector holding only the
//    reservations the current pass itself places (reserve()).
//    clear_overlay() is the per-pass undo log: O(overlay), not O(world).
//
// Queries merge-walk both layers. Both the backfill baseline and the
// SD-Policy's static_end estimate (Listing 1) read this profile.
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
  /// Every free_at must be > origin. Clears the overlay.
  void set_base(int capacity, SimTime origin,
                const std::vector<std::pair<SimTime, int>>& busy_groups);

  /// Drop the pass's own reservations, keeping the base snapshot.
  void clear_overlay() noexcept { overlay_.clear(); }

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
  /// at the first breakpoint that falls short.
  [[nodiscard]] bool fits(int nodes, SimTime duration, SimTime start) const;

  /// Breakpoints currently held (base + overlay) — observability for the
  /// scheduler microbench.
  [[nodiscard]] std::size_t breakpoint_count() const noexcept {
    return base_.size() + overlay_.size();
  }

  /// Earliest base release (kForever when the base is flat). A snapshot
  /// built at pass time t0 stays valid at a later pass time t1 only while
  /// t1 < first_release_time(): the first release crossing `now` re-clamps
  /// overdue occupants, so the scheduler must refresh its base then.
  [[nodiscard]] SimTime first_release_time() const noexcept {
    return base_.size() > 1 ? base_[1].time : kForever;
  }

  static constexpr SimTime kForever = INT64_MAX / 4;
  static constexpr SimTime kNever = -1;

 private:
  struct Step {
    SimTime time;  ///< free count holds from this time until the next step
    int free;      ///< base free nodes (before overlay deltas)
  };

  /// Base free count at time t (capacity before the first step).
  [[nodiscard]] int base_free_at(SimTime t, std::size_t* step_index = nullptr) const;

  /// One sweep over the merged (base, overlay) step function. All three
  /// queries share it: seed with sweep_at(t), then repeatedly take
  /// next_breakpoint() (kForever when exhausted) and advance_to() it.
  struct Sweep {
    std::size_t bi = 0;   ///< next base step
    std::size_t oi = 0;   ///< next overlay delta
    int base_free = 0;
    int overlay_sum = 0;
    [[nodiscard]] int free() const noexcept { return base_free + overlay_sum; }
  };
  [[nodiscard]] Sweep sweep_at(SimTime t) const;
  [[nodiscard]] SimTime next_breakpoint(const Sweep& sweep) const noexcept;
  void advance_to(Sweep& sweep, SimTime t) const noexcept;

  int capacity_ = 0;
  std::vector<Step> base_;                            ///< sorted, cumulative
  std::vector<std::pair<SimTime, int>> overlay_;      ///< sorted (time, delta)
};

}  // namespace sdsched

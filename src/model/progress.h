// Progress integration: turns rate changes into completion times.
//
// Each running Job carries (work_done, rate, last_progress_update). Every
// reconfiguration must first settle the elapsed slot at the *old* rate, then
// install the new rate; the remaining wallclock follows. ProgressTracker
// centralizes that arithmetic so shrink/expand paths cannot diverge.
#pragma once

#include "job/job.h"
#include "model/runtime_model.h"

namespace sdsched {

class NodePerfModel;  // fwd; optional contention multiplier

class ProgressTracker {
 public:
  explicit ProgressTracker(RuntimeModelKind kind) noexcept : kind_(kind) {}

  [[nodiscard]] RuntimeModelKind kind() const noexcept { return kind_; }

  /// Accumulate progress for the slot [job.last_progress_update, now] at the
  /// job's current rate.
  void settle(Job& job, SimTime now) const noexcept;

  /// Recompute the job's rate from its current shares (times an optional
  /// external multiplier from the contention model). Call settle() first.
  void set_rate_from_shares(Job& job, double contention_multiplier = 1.0) const noexcept;

  /// Wallclock remaining until the job's work completes at its current rate.
  /// Requires rate > 0. Rounded up to whole seconds, minimum 0.
  [[nodiscard]] SimTime remaining_wallclock(const Job& job) const noexcept;

 private:
  RuntimeModelKind kind_;
};

}  // namespace sdsched

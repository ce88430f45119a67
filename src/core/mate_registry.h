// Incrementally maintained candidate sets for the SD policy's hot path.
//
// MateSelector::collect_candidates and the DynAVGSD cut-off used to scan
// the *entire* job registry (pending, running and completed jobs alike) on
// every malleable-start attempt — trace-scale registries made each attempt
// O(total jobs). This registry listens to the job lifecycle notifications
// the kernel already emits to the scheduler (start and finish) and keeps
// two sorted id vectors current instead:
//
//  * running() — every running job, in ascending id order (the exact order
//    a registry scan visits them, so DynAVGSD's floating-point average sums
//    in the identical order);
//  * mates()   — the statically eligible subset of the mate role: running,
//    malleable, and not started as a guest. The per-query conditions of
//    eligible_mate (weight, remaining allocation, hosted-guest count) stay
//    at query time because they depend on the guest or on `now`.
//
// Decision parity with the full scan is the contract; check_consistent()
// re-derives both sets by brute force (SdPolicyScheduler runs it on every
// pass under the SDSCHED_CROSSCHECK switch, as the asan test preset does).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "job/job_registry.h"

namespace sdsched {

class MateRegistry {
 public:
  MateRegistry() = default;

  /// Index an already-populated registry (warm-start scenarios construct
  /// the scheduler against running jobs).
  void seed(const JobRegistry& jobs);

  /// `job` began running (static or guest start). Guests are recorded as
  /// running but never as mates (started_as_guest must be set by the time
  /// this fires — the NodeManager sets it during placement).
  void on_start(const Job& job);

  /// `job` completed: drop it from both sets.
  void on_finish(JobId id);

  /// Ascending ids of running jobs.
  [[nodiscard]] const std::vector<JobId>& running() const noexcept { return running_; }

  /// Ascending ids of running jobs statically eligible for the mate role.
  [[nodiscard]] const std::vector<JobId>& mates() const noexcept { return mates_; }

  /// Re-derive both sets from `jobs` and compare. On mismatch returns false
  /// and, if given, fills `diagnosis`.
  [[nodiscard]] bool check_consistent(const JobRegistry& jobs,
                                      std::string* diagnosis = nullptr) const;

 private:
  std::vector<JobId> running_;
  std::vector<JobId> mates_;
};

}  // namespace sdsched

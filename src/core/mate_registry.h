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
//  * mates()   — the jobs that can still take a guest: running, malleable,
//    not started as a guest, and hosting fewer than max_jobs_per_node - 1
//    guests. A full mate leaves while its guests fill it. The checks of
//    eligible_mate (weight, remaining allocation) stay at query time because
//    they depend on the guest or on `now`.
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
  /// Takes the selector's SdConfig::max_jobs_per_node (occupants per node).
  explicit MateRegistry(int max_jobs_per_node) noexcept
      : max_jobs_per_node_(max_jobs_per_node) {}

  /// Index an already-populated registry (warm-start scenarios construct
  /// the scheduler against running jobs).
  void seed(const JobRegistry& jobs);

  /// `job` began running (static or guest start). A guest is running but
  /// never a mate, and the mates it filled leave mates() (the NodeManager's
  /// placement has already written started_as_guest, `mates` and `guests`).
  void on_start(const Job& job, const JobRegistry& jobs);

  /// `job` completed: drop it from both sets and re-list the mates it freed
  /// (NodeManager::finish_job has already taken it off their `guests`).
  void on_finish(const Job& job, const JobRegistry& jobs);

  /// Ascending ids of running jobs.
  [[nodiscard]] const std::vector<JobId>& running() const noexcept { return running_; }

  /// Ascending ids of running jobs that can take a guest.
  [[nodiscard]] const std::vector<JobId>& mates() const noexcept { return mates_; }

  /// Re-derive both sets from `jobs` and compare. On mismatch returns false
  /// and, if given, fills `diagnosis`.
  [[nodiscard]] bool check_consistent(const JobRegistry& jobs,
                                      std::string* diagnosis = nullptr) const;

 private:
  /// Membership in mates().
  [[nodiscard]] bool is_mate(const Job& job) const noexcept;
  /// Bring `job`'s membership in mates() in line with is_mate().
  void sync_mate(const Job& job);

  int max_jobs_per_node_;
  std::vector<JobId> running_;
  std::vector<JobId> mates_;
};

}  // namespace sdsched

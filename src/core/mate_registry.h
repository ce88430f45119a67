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
//  * mates()   — the jobs that can take a guest: running, malleable, not
//    started as a guest, and hosting no guest (a node holds its owner and
//    at most one guest). A mate leaves while it hosts a guest and returns
//    when that guest finishes. The checks of eligible_mate (weight,
//    remaining allocation) stay at query time because they depend on the
//    guest or on `now`.
//
// Beside mates() it keeps a histogram of the listed mates by node count
// (`shares.size()`, the weight w_i that Eq. 3 sums) and the ascending list
// of the weights present. can_sum_to() answers from them whether any
// combination of listed mates could satisfy Eq. 3 at all, so MateSelector
// rejects a hopeless search before it scans a single candidate.
//
// Decision parity with the full scan is the contract; check_consistent()
// re-derives both sets and the histogram by brute force (SdPolicyScheduler
// runs it on every pass under the SDSCHED_CROSSCHECK switch, as the asan
// test preset does).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "job/job_registry.h"

namespace sdsched {

class MateRegistry {
 public:
  /// Index an already-populated registry (warm-start scenarios construct
  /// the scheduler against running jobs).
  void seed(const JobRegistry& jobs);

  /// `job` began running (static or guest start). A guest is running but
  /// never a mate, and the mates it joined leave mates() (the NodeManager's
  /// placement has already written started_as_guest, `mates` and `guests`).
  void on_start(const Job& job, const JobRegistry& jobs);

  /// `job` completed: drop it from both sets and re-list the mates it freed
  /// (NodeManager::finish_job has already taken it off their `guests`).
  void on_finish(const Job& job, const JobRegistry& jobs);

  /// Ascending ids of running jobs.
  [[nodiscard]] const std::vector<JobId>& running() const noexcept { return running_; }

  /// Ascending ids of running jobs that can take a guest.
  [[nodiscard]] const std::vector<JobId>& mates() const noexcept { return mates_; }

  /// True when at most `max_mates` distinct listed mates have node counts
  /// summing to exactly `weight` (Eq. 3 over mates(), before any guest- or
  /// time-dependent filter). False means no mate plan for that weight
  /// exists. Walks only the distinct weights present, largest first.
  [[nodiscard]] bool can_sum_to(int weight, int max_mates) const;

  /// Re-derive both sets and the weight histogram from `jobs` and compare.
  /// On mismatch returns false and, if given, fills `diagnosis`.
  [[nodiscard]] bool check_consistent(const JobRegistry& jobs,
                                      std::string* diagnosis = nullptr) const;

 private:
  /// Membership in mates().
  [[nodiscard]] static bool is_mate(const Job& job) noexcept;
  /// Bring `job`'s membership in mates() in line with is_mate().
  void sync_mate(const Job& job);
  /// Insert into / erase from mates(), keeping the histogram in step.
  void list_mate(const Job& job);
  void unlist_mate(JobId id);
  void count_weight(int weight, int delta);
  /// can_sum_to over the distinct weights below index `end` of weights_.
  [[nodiscard]] bool reachable(int weight, int max_mates, std::size_t end) const;

  std::vector<JobId> running_;
  std::vector<JobId> mates_;
  /// mate_weights_[i] is mates_[i]'s node count when it was listed (a
  /// finished job's shares are already gone when on_finish unlists it).
  std::vector<int> mate_weights_;
  std::vector<int> weight_count_;  ///< listed mates per node count
  std::vector<int> weights_;       ///< ascending node counts with a nonzero count
};

}  // namespace sdsched

// Node-sharing performance model — the simulated stand-in for the paper's
// real-machine run (DESIGN.md §3.2).
//
// Two effects, both called out in §4.4 as the source of the real-run gains:
//  1. Imperfect scalability: an application at a fraction f of its cpus
//     progresses at f^alpha, not f. Memory-bound codes (STREAM, alpha≈0.3)
//     barely notice losing cores, so shrinking them is nearly free.
//  2. Memory-bandwidth contention: co-runners whose combined bandwidth
//     demand exceeds the node's capacity slow each other down in proportion
//     to their memory sensitivity. Crucially the penalty is measured against
//     the job *alone* with the same cpus, so a saturating app (STREAM on a
//     full node) is not double-charged for its own baseline saturation,
//     which is already folded into base_runtime.
//
// The multiplier composes with the Eq. 5/6 rate: rate' = rate * multiplier.
#pragma once

#include <vector>

#include "cluster/machine.h"
#include "job/job_registry.h"
#include "workload/app_profiles.h"

namespace sdsched {

class NodePerfModel {
 public:
  /// Each socket supplies one unit of memory bandwidth (the unit
  /// ApplicationProfile::mem_bw_per_core is expressed in).
  explicit NodePerfModel(std::vector<ApplicationProfile> profiles)
      : profiles_(std::move(profiles)) {}

  /// Multiplier applied to `job`'s progress rate given its current shares
  /// and the co-occupants of its nodes. Returns 1.0 for jobs without a
  /// profile (pure Eq. 5/6 behaviour).
  [[nodiscard]] double multiplier(const Job& job, const Machine& machine,
                                  const JobRegistry& jobs) const;

  [[nodiscard]] const std::vector<ApplicationProfile>& profiles() const noexcept {
    return profiles_;
  }

 private:
  [[nodiscard]] const ApplicationProfile* profile_of(const Job& job) const noexcept;

  std::vector<ApplicationProfile> profiles_;
};

}  // namespace sdsched

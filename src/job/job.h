// Job model: the immutable submission record (JobSpec, one SWF line) and the
// mutable simulation state (Job).
//
// Two views of time coexist deliberately:
//  * execution truth — work_done/rate integration against base_runtime;
//    only the simulator kernel sees it (the real machine's analogue).
//  * scheduler belief — requested-time-based predictions (predicted_end,
//    accrued increase); everything the policy decides on uses these, because
//    a real scheduler never knows actual durations in advance (paper §3.1).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "job/job_types.h"
#include "sim/event.h"
#include "util/time_utils.h"

namespace sdsched {

/// Placement constraints (paper §3.2.4: the selection algorithm "supports
/// contiguous allocations, node filtering by name, architecture, memory and
/// network constraints"). Empty string / zero means unconstrained.
struct JobConstraints {
  std::string required_arch;
  int min_memory_gb = 0;
  std::string required_network;
  bool contiguous = false;  ///< consecutive node ids

  [[nodiscard]] bool unconstrained() const noexcept {
    return required_arch.empty() && min_memory_gb == 0 && required_network.empty() &&
           !contiguous;
  }
};

/// Immutable submission record (mirrors the SWF fields the policy uses).
struct JobSpec {
  JobId id = kInvalidJob;
  SimTime submit = 0;
  SimTime base_runtime = 0;  ///< duration at full static allocation (trace "run time")
  SimTime req_time = 0;      ///< user-requested wallclock limit
  int req_cpus = 1;          ///< requested processors
  int req_nodes = 0;         ///< whole nodes; 0 = derive from req_cpus at load time
  int ranks_per_node = 1;    ///< MPI ranks per node: floor for shrinking (>=1 cpu/rank)
  MalleabilityClass malleability = MalleabilityClass::Malleable;
  int app_profile = -1;  ///< index into the ApplicationProfile table, -1 = none
  int user_id = -1;
  JobConstraints constraints;
};

/// One node's worth of a job's allocation.
///
/// `cpus` is what the job currently holds (its DROM mask width);
/// `static_cpus` is the balanced per-node split of req_cpus the job would
/// hold in a static run — the reference point of the Eq. 5/6 models, so a
/// statically placed job always runs at rate exactly 1.
struct NodeShare {
  int node = -1;
  int cpus = 0;
  int static_cpus = 0;
};

/// Balanced split of `req_cpus` across `nodes` nodes: the first
/// (req_cpus % nodes) nodes carry one extra cpu. This is the "statically
/// load balanced" assumption of paper §3.2.3.
[[nodiscard]] std::vector<int> balanced_split(int req_cpus, int nodes);

/// Mutable per-job simulation state. Owned by JobRegistry; everything is a
/// plain value so simulations are copyable and independent.
struct Job {
  JobSpec spec;

  JobState state = JobState::Pending;
  SimTime start_time = -1;
  SimTime end_time = -1;

  // --- execution truth (simulator kernel only) ---
  std::vector<NodeShare> shares;   ///< current allocation
  double work_done = 0.0;          ///< seconds of full-rate-equivalent progress
  double rate = 1.0;               ///< current progress per wallclock second
  SimTime last_progress_update = 0;
  EventHandle finish_event = kInvalidEvent;

  // --- scheduler belief ---
  SimTime predicted_end = -1;      ///< start + req_time + accrued predicted increase
  SimTime predicted_increase = 0;  ///< accrued worst-case increase from sharing

  // --- malleability bookkeeping ---
  bool started_as_guest = false;    ///< scheduled via SD-Policy with reduced resources
  bool ever_mate = false;           ///< was shrunk at least once to host a guest
  std::vector<JobId> mates;         ///< (guest only) jobs we took cores from
  std::vector<JobId> guests;        ///< (mate only) jobs currently on our nodes
  int shrink_count = 0;             ///< reconfigurations applied to this job
  /// DROM mask changes (per node) applied since the kernel last integrated
  /// progress — the unit the reconfiguration-overhead model charges for.
  int pending_reconfig_ops = 0;

  [[nodiscard]] bool running() const noexcept { return state == JobState::Running; }
  [[nodiscard]] bool pending() const noexcept { return state == JobState::Pending; }
  [[nodiscard]] bool malleable() const noexcept {
    return spec.malleability == MalleabilityClass::Malleable;
  }
  /// Can this job *start* with fewer cpus than requested (guest role)?
  [[nodiscard]] bool can_start_shrunk() const noexcept {
    return spec.malleability != MalleabilityClass::Rigid;
  }
  /// Can this running job be shrunk (mate role)? Only truly malleable jobs.
  [[nodiscard]] bool can_be_mate() const noexcept { return malleable(); }

  [[nodiscard]] int allocated_cpus() const noexcept;

  /// Wait time experienced so far (running/completed) or up to `now`.
  [[nodiscard]] SimTime wait_time(SimTime now) const noexcept {
    return (start_time >= 0 ? start_time : now) - spec.submit;
  }
  /// Response = end - submit. Requires completion.
  [[nodiscard]] SimTime response_time() const noexcept { return end_time - spec.submit; }
  /// Paper metric: response / static execution time, floored at 1s runtime.
  [[nodiscard]] double slowdown() const noexcept;
};

/// Derive whole-node request from cpus (SLURM select/linear semantics).
[[nodiscard]] int nodes_for(int req_cpus, int cores_per_node) noexcept;

}  // namespace sdsched

// Node-level resource management (paper §3.3, Listing 3) — the simulator's
// slurmd/slurmstepd + task/affinity logic.
//
// The NodeManager executes placement plans decided by the scheduler:
//  * static exclusive starts,
//  * co-scheduled guest starts (shrink mates, place guest),
//  * job completions (return cores to the owner when a guest leaves;
//    redistribute to the remaining malleable occupants when an owner leaves
//    early — the §4.3 unbalance case).
//
// Expansion never exceeds a job's static per-node share (static_cpus): the
// application has req_cpus worth of parallelism in total, so extra cores
// beyond the static split cannot be put to work.
//
// Every mutation keeps Machine occupancy and Job.shares consistent and
// counts each share shrink/expand in the DROM registry; socket masks are
// derived from the node's occupants on demand (mask()). Methods return the
// set of jobs whose core counts changed so the simulation kernel can
// re-integrate their progress.
#pragma once

#include <optional>
#include <vector>

#include "cluster/machine.h"
#include "drom/cpu_distribution.h"
#include "drom/drom.h"
#include "job/job_registry.h"

namespace sdsched {

/// One node of a malleable co-scheduling plan (produced by MateSelector).
struct SharePlan {
  int node = -1;
  JobId mate = kInvalidJob;   ///< owner to shrink; kInvalidJob = free node
  int guest_cpus = 0;         ///< cores the guest receives on this node
  int mate_kept_cpus = 0;     ///< cores the mate keeps (ignored for free nodes)
  int guest_static_cpus = 0;  ///< guest's balanced static need on this node
};

class NodeManager {
 public:
  NodeManager(Machine& machine, JobRegistry& jobs, DromRegistry& drom) noexcept
      : machine_(machine), jobs_(jobs), drom_(drom) {}

  /// Exclusive start on empty nodes; shares get the balanced static split.
  void start_static(SimTime now, JobId job, const std::vector<int>& nodes);

  /// Malleable co-scheduled start. Returns the mates that were shrunk.
  std::vector<JobId> start_guest(SimTime now, JobId guest,
                                 const std::vector<SharePlan>& plan);

  /// Completion: release everywhere, expand survivors. Returns jobs whose
  /// allocation changed (excluding the finished job itself).
  std::vector<JobId> finish_job(SimTime now, JobId job);

  [[nodiscard]] const DromRegistry& drom() const noexcept { return drom_; }

  /// `job`'s socket mask on `node_id` (Listing 3 step 1): distribute_cpu
  /// over the node's current occupants. nullopt if the job is not there.
  [[nodiscard]] std::optional<CpuMask> mask(JobId job, int node_id) const;

 private:
  /// Grow `job`'s share on `node_id` up to min(static share, available).
  /// Returns true if the share changed.
  bool expand_on_node(SimTime now, Job& job, int node_id, int available);

  Machine& machine_;
  JobRegistry& jobs_;
  DromRegistry& drom_;
};

}  // namespace sdsched

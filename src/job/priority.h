// Queue priority policies.
//
// The paper evaluates SD-Policy on SLURM's default FIFO priority ("favors
// the scheduling of jobs in order of priority", §3.1); production SLURM
// sites run the multifactor plug-in. Both are provided so the policy can be
// studied under realistic priority mixes. Higher priority schedules first;
// ties fall back to (submit, id) FCFS order.
#pragma once

#include <vector>

#include "job/job.h"
#include "job/job_registry.h"

namespace sdsched {

enum class PriorityKind : int {
  Fcfs = 0,           ///< arrival order (the paper's setting)
  SmallestFirst = 1,  ///< fewest requested nodes first (SJF-ish, starvation-prone)
  Multifactor = 2,    ///< SLURM-style weighted sum of age and size factors
};

struct PriorityConfig {
  PriorityKind kind = PriorityKind::Fcfs;
  /// Multifactor weights. The age factor saturates at `age_saturation`
  /// (SLURM's PriorityMaxAge); the size factor is the job's fraction of the
  /// machine (favour-small sites use a negative weight).
  double age_weight = 1000.0;
  double size_weight = 0.0;
  SimTime age_saturation = 7 * kDay;
  int machine_nodes = 1;  ///< normalizes the size factor
};

/// Priority of one job at `now` (higher runs first).
[[nodiscard]] double job_priority(const PriorityConfig& config, const JobSpec& spec,
                                  SimTime now) noexcept;

/// Stable-sort `ids` (given in FCFS order, which therefore breaks ties) by
/// descending priority at `now` — the comparator behind the WaitQueue's
/// cached scheduling-order view.
void sort_by_priority(const PriorityConfig& config, const JobRegistry& jobs, SimTime now,
                      std::vector<JobId>& ids);

}  // namespace sdsched

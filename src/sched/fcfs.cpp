#include "sched/fcfs.h"

#include "cluster/cluster_state_index.h"

namespace sdsched {

void FcfsScheduler::schedule_pass(SimTime /*now*/) {
  require_cluster_index();
  if (queue_.empty()) return;
  // One ordered view for the whole pass (removal does not reorder the
  // rest): strict FCFS — the first job that cannot be placed blocks
  // everything behind it.
  for (const JobId id : scheduling_order()) {
    const Job& job = jobs_.at(id);
    const auto nodes = cluster_index_->find_free_nodes(job.spec.req_nodes, &job.spec.constraints);
    if (!nodes) return;  // head blocks
    queue_.remove(id);
    executor_.start_static(id, *nodes);
    on_job_started(id);
  }
}

}  // namespace sdsched

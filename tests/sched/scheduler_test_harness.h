// Shared harness for scheduler unit tests: a StartExecutor that owns the
// ClusterStateIndex and applies starts the way the Simulation kernel would,
// minus event handling. Fixtures attach `executor.index` to every scheduler
// they build (scheduler.set_cluster_index(&executor.index)).
#pragma once

#include <vector>

#include "cluster/cluster_state_index.h"
#include "drom/node_manager.h"
#include "sched/scheduler.h"

namespace sdsched::testing_support {

class RecordingExecutor final : public StartExecutor {
 public:
  RecordingExecutor(Machine& machine, JobRegistry& jobs, NodeManager& mgr)
      : index(machine, jobs), jobs_(jobs), mgr_(mgr) {}

  ClusterStateIndex index;
  SimTime now = 0;
  std::vector<JobId> static_starts;
  std::vector<JobId> guest_starts;

  void start_static(JobId id, const std::vector<int>& nodes) override {
    Job& job = jobs_.at(id);
    job.state = JobState::Running;
    job.start_time = now;
    job.predicted_end = now + job.spec.req_time;
    mgr_.start_static(now, id, nodes);
    static_starts.push_back(id);
  }

  void start_guest(JobId id, const MatePlan& plan) override {
    Job& job = jobs_.at(id);
    job.state = JobState::Running;
    job.start_time = now;
    job.predicted_increase = plan.guest_increase;
    job.predicted_end = now + job.spec.req_time + plan.guest_increase;
    for (std::size_t i = 0; i < plan.mates.size(); ++i) {
      Job& mate = jobs_.at(plan.mates[i]);
      mate.predicted_increase += plan.mate_increases[i];
      mate.predicted_end += plan.mate_increases[i];
      index.on_predicted_end_changed(plan.mates[i]);
    }
    mgr_.start_guest(now, id, plan.nodes);
    guest_starts.push_back(id);
  }

 private:
  JobRegistry& jobs_;
  NodeManager& mgr_;
};

/// Complete a running job: release resources and expand survivors.
inline void finish(JobRegistry& jobs, NodeManager& mgr, JobId id, SimTime now) {
  Job& job = jobs.at(id);
  job.state = JobState::Completed;
  job.end_time = now;
  mgr.finish_job(now, id);
}

/// Minimal malleable job spec.
inline JobSpec spec_of(SimTime submit, SimTime runtime, SimTime req_time, int cpus,
                       int cores_per_node,
                       MalleabilityClass cls = MalleabilityClass::Malleable) {
  JobSpec spec;
  spec.submit = submit;
  spec.base_runtime = runtime;
  spec.req_time = req_time;
  spec.req_cpus = cpus;
  spec.req_nodes = nodes_for(cpus, cores_per_node);
  spec.malleability = cls;
  return spec;
}

}  // namespace sdsched::testing_support

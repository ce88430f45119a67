// Workload container: an ordered list of JobSpecs plus the system the trace
// targets. Produced by the SWF reader or the statistical generators.
//
// Job storage is immutable and shared: copying a Workload copies a
// shared_ptr, not the job list, so a parameter sweep that runs the same
// trace under N configurations holds one copy of the (potentially hundreds
// of thousands of) JobSpecs instead of N. Mutating operations (add,
// normalize, prepare_for, mutable_jobs) detach — they clone the storage
// first if any other Workload still shares it — so a copy can never observe
// another copy's edits, and concurrent Simulations can safely share one
// prepared workload.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "job/job.h"

namespace sdsched {

struct WorkloadInfo {
  std::string name = "workload";
  int system_nodes = 0;     ///< nodes of the target machine (0 = unknown)
  int cores_per_node = 0;   ///< 0 = unknown
};

class Workload {
 public:
  Workload() = default;
  Workload(WorkloadInfo info, std::vector<JobSpec> jobs)
      : info_(std::move(info)),
        jobs_(std::make_shared<std::vector<JobSpec>>(std::move(jobs))) {}

  [[nodiscard]] const WorkloadInfo& info() const noexcept { return info_; }
  [[nodiscard]] WorkloadInfo& info() noexcept { return info_; }
  [[nodiscard]] const std::vector<JobSpec>& jobs() const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return jobs_ ? jobs_->size() : 0; }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  void add(JobSpec spec) { detach().push_back(spec); }

  /// Pre-size the job storage for a known (or estimated) job count so bulk
  /// readers append without reallocation churn. A hint, not a limit —
  /// detaches like every mutation.
  void reserve(std::size_t capacity) { detach().reserve(capacity); }

  /// Mutable view of the job list. Detaches from sharing copies and
  /// invalidates preparation — call prepare_for() again before simulating.
  [[nodiscard]] std::vector<JobSpec>& mutable_jobs() { return detach(); }

  /// Sort by (submit, id) and renumber ids densely from 0 — the registry
  /// requires dense in-order ids.
  void normalize();

  /// Clamp requests to the machine, derive req_nodes from req_cpus, drop
  /// unrunnable jobs (zero runtime/cpus). Returns dropped count. Idempotent:
  /// a workload already prepared for the same machine is left shared,
  /// untouched. Throws std::invalid_argument, naming the job's index in
  /// jobs() and the field, when a submit, base_runtime or req_time lies
  /// beyond the SWF readers' +/-kSwfMaxSeconds.
  std::size_t prepare_for(int system_nodes, int cores_per_node);

  /// True when prepare_for(system_nodes, cores_per_node) has run and no
  /// mutation happened since — i.e. the jobs can be fed to a Simulation of
  /// that machine without another preparation pass.
  [[nodiscard]] bool prepared_for(int system_nodes, int cores_per_node) const noexcept {
    return prepared_ && info_.system_nodes == system_nodes &&
           info_.cores_per_node == cores_per_node;
  }

  /// True when both workloads point at the same job storage (sharing
  /// diagnostics for tests and sweep plumbing).
  [[nodiscard]] bool shares_jobs_with(const Workload& other) const noexcept {
    return jobs_ != nullptr && jobs_ == other.jobs_;
  }

  /// Sum over jobs of base_runtime * req_cpus (core-seconds of real work).
  [[nodiscard]] double total_work_core_seconds() const noexcept;

  /// Offered load: total work / (capacity * submit-span).
  [[nodiscard]] double offered_load(int total_cores) const noexcept;

 private:
  /// Exclusive, mutable storage: clones when shared, allocates when empty.
  std::vector<JobSpec>& detach();

  WorkloadInfo info_;
  std::shared_ptr<const std::vector<JobSpec>> jobs_;
  bool prepared_ = false;
};

}  // namespace sdsched

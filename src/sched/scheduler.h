// Scheduler interface and wiring.
//
// Schedulers decide; the simulation kernel executes. A scheduler receives
// submit/finish notifications and runs scheduling passes; every job start
// goes through the StartExecutor (implemented by api/Simulation), which owns
// progress integration, finish events and metrics. This mirrors the paper's
// split between slurmctld plug-ins (policy) and slurmd/DROM (mechanism).
#pragma once

#include <memory>
#include <vector>

#include "cluster/machine.h"
#include "drom/node_manager.h"
#include "job/job_registry.h"
#include "job/wait_queue.h"
#include "model/runtime_predictor.h"
#include "util/time_utils.h"

namespace sdsched {

class ClusterStateIndex;
struct SimulationReport;

/// A fully costed malleable co-scheduling decision (MateSelector output).
struct MatePlan {
  std::vector<SharePlan> nodes;         ///< per-node placement actions
  std::vector<JobId> mates;             ///< distinct mates, deterministic order
  std::vector<SimTime> mate_increases;  ///< predicted increase per mate (Eq. 6)
  SimTime guest_increase = 0;           ///< predicted guest increase (Eq. 6)
  SimTime guest_duration = 0;           ///< predicted guest wallclock (req/rate)
  double performance_impact = 0.0;      ///< Eq. 1: sum of mate penalties
};

/// Execution callbacks the kernel provides to schedulers.
class StartExecutor {
 public:
  virtual ~StartExecutor() = default;

  /// Start `job` exclusively on `nodes` (whole-node static placement).
  virtual void start_static(JobId job, const std::vector<int>& nodes) = 0;

  /// Start `job` as a malleable guest per `plan` (shrinks the plan's mates).
  virtual void start_guest(JobId job, const MatePlan& plan) = 0;
};

/// Queue order. FIFO (SLURM's default, the paper's §3.1 setting) is the
/// only one: the wait queue schedules in arrival order. The one-value type
/// stays while bench/sdbench's traced kernel tests it.
enum class PriorityKind { Fcfs };

struct PriorityConfig {
  PriorityKind kind = PriorityKind::Fcfs;
};

struct SchedConfig {
  /// Queued jobs that receive reservations per pass: 1 = EASY backfill,
  /// larger = conservative-ish (SLURM bf_max_job_test).
  int reservation_depth = 100;
  /// Queued jobs examined per pass (bounds pass cost on deep queues).
  int bf_max_jobs = 1000;
  /// Periodic pass cadence (SLURM bf_interval). 0 disables periodic passes
  /// (passes still run on every submit/finish).
  SimTime bf_interval = 30;
  /// Queue ordering (always FIFO).
  PriorityConfig priority;
};

class Scheduler {
 public:
  explicit Scheduler(Machine& machine, JobRegistry& jobs, StartExecutor& executor,
                     SchedConfig config) noexcept
      : machine_(machine), jobs_(jobs), executor_(executor), config_(config) {}
  virtual ~Scheduler() = default;

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  virtual void on_submit(JobId job) { queue_.push(job, jobs_.at(job).spec.submit); }
  virtual void on_finish(JobId /*job*/) {}

  /// Run one scheduling pass at time `now` (start everything startable,
  /// honouring policy-specific reservations/malleability).
  virtual void schedule_pass(SimTime now) = 0;

  [[nodiscard]] const WaitQueue& queue() const noexcept { return queue_; }
  [[nodiscard]] const SchedConfig& config() const noexcept { return config_; }
  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// Contribute policy-specific statistics to the final report (e.g.
  /// backfill's cancelled-job count). Called once by Simulation::run() so
  /// the kernel needs no RTTI on concrete scheduler types.
  virtual void annotate(SimulationReport& /*report*/) const {}

  /// Install an online runtime predictor (paper future work #2); the
  /// scheduler then plans with predictions instead of raw user requests.
  void set_runtime_predictor(const RuntimePredictor* predictor) noexcept {
    predictor_ = predictor;
  }

  /// Install the event-driven cluster index — the one view of cluster
  /// state every pass reads: profile bases are incremental snapshots,
  /// constraint filtering is O(attribute classes) and free-node picks go
  /// through the class-partitioned bitmap. schedule_pass throws
  /// std::logic_error until one is attached. Virtual so policies can
  /// forward the index to the components they own (SD-Policy hands it to
  /// its MateSelector).
  virtual void set_cluster_index(const ClusterStateIndex* index) noexcept {
    cluster_index_ = index;
  }

  /// The scheduler's working estimate of a job's duration: the user request,
  /// or the predictor's refinement when one is installed.
  [[nodiscard]] SimTime effective_req_time(const JobSpec& spec) const {
    return predictor_ != nullptr ? predictor_->predict(spec) : spec.req_time;
  }

 protected:
  /// Lifecycle hook fired by the concrete schedulers right after a start is
  /// applied through the executor (static or guest). Policies that maintain
  /// incremental job sets (SD-Policy's mate registry) override it; paired
  /// with on_finish(), it sees every running-set transition.
  virtual void on_job_started(JobId /*job*/) {}

  /// Throws std::logic_error unless a cluster index is attached. Every
  /// schedule_pass calls it first; the pass then reads cluster_index_.
  void require_cluster_index() const;

  /// Queue view in scheduling (arrival) order. Cached inside the
  /// WaitQueue: rebuilt only after a push/remove, so a pass over an
  /// unchanged queue costs nothing here. The view stays valid while the
  /// pass removes the jobs it starts.
  [[nodiscard]] const std::vector<JobId>& scheduling_order() const {
    return queue_.scheduling_order();
  }

  const RuntimePredictor* predictor_ = nullptr;
  const ClusterStateIndex* cluster_index_ = nullptr;
  Machine& machine_;
  JobRegistry& jobs_;
  StartExecutor& executor_;
  SchedConfig config_;
  WaitQueue queue_;
};

}  // namespace sdsched

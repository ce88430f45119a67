// Simulation facade — the public entry point of the library.
//
//   Workload w = generate_cirne({...});
//   SimulationConfig cfg;
//   cfg.machine.nodes = 1024;
//   cfg.policy = PolicyKind::SdPolicy;
//   SimulationReport report = Simulation(cfg, w).run();
//
// The Simulation owns the discrete-event kernel: it feeds submissions to the
// scheduler, executes the scheduler's start decisions (implementing
// StartExecutor), integrates job progress under the configured runtime
// model (optionally refined by the application contention model), manages
// finish events through every malleability reconfiguration, and collects
// metrics.
#pragma once

#include <memory>
#include <optional>

#include "api/report.h"
#include "cluster/cluster_state_index.h"
#include "cluster/machine.h"
#include "core/sd_config.h"
#include "core/sd_policy.h"
#include "drom/node_manager.h"
#include "job/job_registry.h"
#include "metrics/collector.h"
#include "model/node_perf.h"
#include "model/progress.h"
#include "model/runtime_predictor.h"
#include "sched/scheduler.h"
#include "sim/engine.h"
#include "workload/workload.h"

namespace sdsched {

enum class PolicyKind : int { Fcfs = 0, Backfill = 1, SdPolicy = 2 };

[[nodiscard]] constexpr const char* to_string(PolicyKind kind) noexcept {
  switch (kind) {
    case PolicyKind::Fcfs: return "fcfs";
    case PolicyKind::Backfill: return "backfill";
    case PolicyKind::SdPolicy: return "sd-policy";
  }
  return "?";
}

/// Scheduler-state sharding. Only the single flat cluster view exists, so
/// `count` must be 1; Simulation rejects anything else.
struct ShardConfig {
  int count = 1;
};

struct SimulationConfig {
  MachineConfig machine;
  SchedConfig sched;
  PolicyKind policy = PolicyKind::Backfill;
  SdConfig sd;  ///< used when policy == SdPolicy

  /// How simulated applications respond to resource changes (Fig. 8
  /// compares Ideal vs WorstCase); the scheduler always estimates with the
  /// worst-case model regardless.
  RuntimeModelKind execution_model = RuntimeModelKind::Ideal;

  /// Enable the Table-2 application contention model (real-run reproduction).
  bool use_app_model = false;

  /// Replace user estimates with the online runtime predictor (paper §4.1 /
  /// future work #2) for all scheduler planning.
  bool use_runtime_prediction = false;

  /// Wallclock lost per DROM mask change per node (shrink/expand). The
  /// paper measured this as negligible for DROM (§2.1) — the default —
  /// but checkpoint/restart-based malleability (§5: FLEX-MPI et al.) costs
  /// minutes; the ablation bench sweeps this to show why low overhead is
  /// what makes high-frequency malleability viable.
  SimTime reconfig_overhead = 0;

  ShardConfig shards;

  /// Safety valve for runaway simulations (0 = unlimited).
  std::uint64_t max_events = 0;
};

class Simulation final : public StartExecutor {
 public:
  /// The workload is prepared (clamped/sorted) against the machine.
  /// Throws std::invalid_argument when config.shards.count != 1.
  Simulation(SimulationConfig config, Workload workload);

  /// Run to completion and return the report. One-shot.
  [[nodiscard]] SimulationReport run();

  // StartExecutor (called by schedulers; not for direct use).
  void start_static(JobId job, const std::vector<int>& nodes) override;
  void start_guest(JobId job, const MatePlan& plan) override;

  // Introspection for tests.
  [[nodiscard]] const Machine& machine() const noexcept { return machine_; }
  [[nodiscard]] const JobRegistry& jobs() const noexcept { return jobs_; }
  [[nodiscard]] const Scheduler& scheduler() const noexcept { return *scheduler_; }

 private:
  void handle_event(const EventQueue::Fired& fired);
  void on_submit(JobId id);
  void on_finish(JobId id, EventHandle handle);
  void run_pass();
  void arm_tick();

  /// Settle progress, refresh rate (model x contention) and reschedule the
  /// finish event of a running job whose allocation or neighbours changed.
  void reconfigure_job(JobId id);
  [[nodiscard]] double contention_multiplier(const Job& job) const;
  [[nodiscard]] SimTime planned_runtime(const JobSpec& spec) const;
  void schedule_finish(Job& job);

  SimulationConfig config_;
  Workload workload_;
  Engine engine_;
  Machine machine_;
  JobRegistry jobs_;
  ClusterStateIndex cluster_index_;
  DromRegistry drom_;
  NodeManager node_mgr_;
  ProgressTracker tracker_;
  std::optional<NodePerfModel> app_model_;
  std::optional<RuntimePredictor> predictor_;
  std::unique_ptr<Scheduler> scheduler_;
  MetricsCollector metrics_;

  std::uint64_t passes_ = 0;
  std::uint64_t malleable_starts_ = 0;
  std::uint64_t submits_coalesced_ = 0;
  std::uint64_t ticks_cancelled_ = 0;
  /// The periodic-pass chain: `next_tick_` is the time the next tick fires
  /// (or would fire — it survives a queue drain so the chain's phase, and
  /// therefore every pass time, matches the historical always-armed
  /// behaviour exactly); `tick_event_` is the armed event, if any.
  SimTime next_tick_ = -1;
  EventHandle tick_event_ = kInvalidEvent;
  std::size_t completed_ = 0;
  bool ran_ = false;
};

}  // namespace sdsched

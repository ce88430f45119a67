#include "api/simulation.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "sched/backfill.h"
#include "sched/fcfs.h"
#include "util/logging.h"
#include "workload/app_profiles.h"
#include "workload/swf.h"

namespace sdsched {

namespace {

/// Throws std::invalid_argument naming the first out-of-range field (a
/// negative bf_interval would read as "no ticks"; bf_max_jobs < 1 starts nothing).
void validate(const SchedConfig& sched) {
  const auto reject = [](const char* field, const char* rule, long long value) {
    throw std::invalid_argument(std::string("SchedConfig.") + field + " must be " + rule +
                                ", got " + std::to_string(value));
  };
  if (sched.bf_interval < 0) reject("bf_interval", ">= 0", sched.bf_interval);
  if (sched.reservation_depth < 0) reject("reservation_depth", ">= 0", sched.reservation_depth);
  if (sched.bf_max_jobs < 1) reject("bf_max_jobs", ">= 1", sched.bf_max_jobs);
}

}  // namespace

Simulation::Simulation(SimulationConfig config, Workload workload)
    : config_(config),
      workload_(std::move(workload)),
      machine_(config.machine),
      cluster_index_(machine_, jobs_),
      node_mgr_(machine_, jobs_, drom_),
      tracker_(config.execution_model) {
  if (config_.shards.count != 1) {
    throw std::invalid_argument("Simulation: shards.count must be 1, got " +
                                std::to_string(config_.shards.count));
  }
  validate(config_.sched);
  // The SWF readers' time bound: a negative overhead used to be ignored.
  if (config_.reconfig_overhead < 0 || config_.reconfig_overhead > kSwfMaxSeconds) {
    throw std::invalid_argument("SimulationConfig.reconfig_overhead must be in [0, " +
                                std::to_string(kSwfMaxSeconds) + "] s, got " +
                                std::to_string(config_.reconfig_overhead));
  }
  // Already-prepared workloads (the generators and SweepRunner prepare once)
  // stay shared — no per-simulation deep copy; anything else gets a private
  // prepared copy, exactly as before.
  workload_.prepare_for(config_.machine.nodes, machine_.cores_per_node());
  for (const auto& spec : workload_.jobs()) {
    jobs_.add(spec);
  }
  if (config_.use_app_model) {
    app_model_.emplace(table2_profiles());
  }
  if (config_.use_runtime_prediction) {
    predictor_.emplace();
  }
  switch (config_.policy) {
    case PolicyKind::Fcfs:
      scheduler_ = std::make_unique<FcfsScheduler>(machine_, jobs_, *this, config_.sched);
      break;
    case PolicyKind::Backfill:
      scheduler_ =
          std::make_unique<BackfillScheduler>(machine_, jobs_, *this, config_.sched);
      break;
    case PolicyKind::SdPolicy:
      scheduler_ = std::make_unique<SdPolicyScheduler>(machine_, jobs_, *this,
                                                       config_.sched, config_.sd);
      break;
  }
  if (!scheduler_) {
    throw std::invalid_argument("Simulation: unknown PolicyKind " +
                                std::to_string(static_cast<int>(config_.policy)));
  }
  if (predictor_) {
    scheduler_->set_runtime_predictor(&*predictor_);
  }
  scheduler_->set_cluster_index(&cluster_index_);
  engine_.set_handler([this](const EventQueue::Fired& fired) { handle_event(fired); });
}

SimTime Simulation::planned_runtime(const JobSpec& spec) const {
  return predictor_ ? predictor_->predict(spec) : spec.req_time;
}

double Simulation::contention_multiplier(const Job& job) const {
  return app_model_ ? app_model_->multiplier(job, machine_, jobs_) : 1.0;
}

void Simulation::schedule_finish(Job& job) {
  if (job.finish_event != kInvalidEvent) {
    engine_.cancel(job.finish_event);
  }
  assert(job.rate > 0.0 && "running job with zero progress rate");
  const SimTime finish_at = engine_.now() + tracker_.remaining_wallclock(job);
  job.finish_event =
      engine_.schedule_at(finish_at, Event{EventKind::JobFinish, job.spec.id});
}

void Simulation::reconfigure_job(JobId id) {
  Job& job = jobs_.at(id);
  if (!job.running()) return;
  tracker_.settle(job, engine_.now());
  tracker_.set_rate_from_shares(job, contention_multiplier(job));
  // Charge the reconfiguration overhead: a transition stalls the whole
  // (synchronized) application for reconfig_overhead seconds of wallclock —
  // per-node mask changes overlap, so one stall per transition regardless
  // of node count. Expressed as work debt at the post-transition rate;
  // work_done may go negative (debt repaid at the current rate).
  if (config_.reconfig_overhead > 0 && job.pending_reconfig_ops > 0) {
    job.work_done -= static_cast<double>(config_.reconfig_overhead) * job.rate;
  }
  job.pending_reconfig_ops = 0;
  schedule_finish(job);
}

void Simulation::start_static(JobId id, const std::vector<int>& nodes) {
  Job& job = jobs_.at(id);
  assert(job.pending());
  const SimTime now = engine_.now();
  job.state = JobState::Running;
  job.start_time = now;
  job.last_progress_update = now;
  job.work_done = 0.0;
  job.predicted_increase = 0;
  job.predicted_end = now + planned_runtime(job.spec);
  node_mgr_.start_static(now, id, nodes);
  tracker_.set_rate_from_shares(job, contention_multiplier(job));
  schedule_finish(job);
}

void Simulation::start_guest(JobId id, const MatePlan& plan) {
  Job& job = jobs_.at(id);
  assert(job.pending());
  const SimTime now = engine_.now();
  job.state = JobState::Running;
  job.start_time = now;
  job.last_progress_update = now;
  job.work_done = 0.0;
  job.predicted_increase = plan.guest_increase;
  job.predicted_end = now + planned_runtime(job.spec) + plan.guest_increase;

  // update_stats (Listing 1): stretch the mates' scheduler-visible ends
  // before the node-level shrink so backfill's next profile sees them. The
  // cluster index must hear about every stretch explicitly — a mate may
  // hold nodes the placement plan never touches.
  for (std::size_t i = 0; i < plan.mates.size(); ++i) {
    Job& mate = jobs_.at(plan.mates[i]);
    mate.predicted_increase += plan.mate_increases[i];
    mate.predicted_end += plan.mate_increases[i];
    cluster_index_.on_predicted_end_changed(plan.mates[i]);
  }

  const auto affected = node_mgr_.start_guest(now, id, plan.nodes);
  for (const JobId mate_id : affected) {
    reconfigure_job(mate_id);
  }
  tracker_.set_rate_from_shares(job, contention_multiplier(job));
  schedule_finish(job);
  ++malleable_starts_;
}

void Simulation::on_submit(JobId id) {
  scheduler_->on_submit(id);
  // Coalesce same-timestamp submit bursts into one pass. Kind-major event
  // ordering keeps a burst contiguous (all finishes at t fire before the
  // first submit at t), and the coalesced pass walks the burst in arrival
  // order, so it makes the exact decisions the per-submit passes would have
  // made — minus the rework. SD-Policy keeps a pass per submit to stay
  // decision-identical: a malleable start's within-pass profile edits leave
  // a mate-shared node free at the stretched mate end even when the guest
  // outlives it, whereas the next per-submit pass would rebuild the exact
  // profile.
  if (config_.policy != PolicyKind::SdPolicy && !engine_.idle() &&
      engine_.next_time() == engine_.now() &&
      engine_.next_event().kind == EventKind::JobSubmit) {
    ++submits_coalesced_;
    return;
  }
  run_pass();
}

void Simulation::on_finish(JobId id, EventHandle handle) {
  Job& job = jobs_.at(id);
  if (handle != job.finish_event) {
    // A cancelled handle can never fire (lazy deletion filters it), so a
    // mismatch means kernel bookkeeping broke.
    log_error("sim", "stale finish event for job ", id);
    return;
  }
  const SimTime now = engine_.now();
  tracker_.settle(job, now);
  assert(job.work_done + 1e-6 >= static_cast<double>(job.spec.base_runtime));
  job.state = JobState::Completed;
  job.end_time = now;
  job.finish_event = kInvalidEvent;

  const auto affected = node_mgr_.finish_job(now, id);
  for (const JobId other : affected) {
    reconfigure_job(other);
  }
  if (predictor_) {
    predictor_->observe(job.spec, job.end_time - job.start_time);
  }
  metrics_.on_complete(job);
  ++completed_;
  scheduler_->on_finish(id);
  run_pass();
}

void Simulation::run_pass() {
  ++passes_;
  scheduler_->schedule_pass(engine_.now());
  arm_tick();
}

void Simulation::arm_tick() {
  if (config_.sched.bf_interval <= 0) return;
  if (scheduler_->queue().empty()) {
    // Queue drained: an armed tick would fire into an idle scheduler and
    // do nothing. Cancel the event but keep `next_tick_` — if work arrives
    // before that time, the chain resumes in phase, so pass times (and
    // decisions) are identical to the always-armed scheme; only the idle
    // events disappear.
    if (tick_event_ != kInvalidEvent) {
      engine_.cancel(tick_event_);
      tick_event_ = kInvalidEvent;
      ++ticks_cancelled_;
    }
    return;
  }
  if (tick_event_ != kInvalidEvent) return;  // one outstanding tick at a time
  if (next_tick_ < engine_.now()) {
    // No live chain (or it lapsed while idle — a tick firing into an empty
    // queue would not have re-armed): start a fresh one from now.
    next_tick_ = engine_.now() + config_.sched.bf_interval;
  }
  tick_event_ = engine_.schedule_at(next_tick_, Event{EventKind::SchedulerTick, kInvalidJob});
}

void Simulation::handle_event(const EventQueue::Fired& fired) {
  switch (fired.event.kind) {
    case EventKind::JobSubmit:
      on_submit(fired.event.job);
      break;
    case EventKind::JobFinish:
      on_finish(fired.event.job, fired.handle);
      break;
    case EventKind::SchedulerTick:
      next_tick_ = -1;
      tick_event_ = kInvalidEvent;
      if (!scheduler_->queue().empty()) {
        run_pass();
      }
      break;
  }
}

SimulationReport Simulation::run() {
  if (ran_) throw std::logic_error("Simulation::run() is one-shot");
  ran_ = true;

  for (const auto& spec : workload_.jobs()) {
    engine_.schedule_at(spec.submit, Event{EventKind::JobSubmit, spec.id});
  }
  const std::uint64_t budget = config_.max_events == 0 ? UINT64_MAX : config_.max_events;
  const std::uint64_t fired = engine_.run(budget);
  if (!engine_.idle()) {
    log_warn("sim", "event budget exhausted with ", engine_.pending_events(),
             " events pending");
  }
  machine_.finalize_energy(engine_.now());

  SimulationReport report;
  report.policy = scheduler_->name();
  report.workload = workload_.info().name;
  report.records = metrics_.records();
  report.summary = metrics_.summarize(machine_.total_cores(), machine_.core_seconds(),
                                      machine_.energy().kwh());
  report.events_fired = fired;
  report.scheduling_passes = passes_;
  report.submits_coalesced = submits_coalesced_;
  report.ticks_cancelled = ticks_cancelled_;
  report.malleable_starts = malleable_starts_;
  report.drom_shrink_ops = drom_.shrink_ops();
  report.drom_expand_ops = drom_.expand_ops();
  scheduler_->annotate(report);
  log_info("sim", report.brief());
  return report;
}

}  // namespace sdsched

// sdbench_trace: the traced run of one workload — where a replay's time goes,
// layer by layer, with the counters each layer keeps.
//
//   sdbench_trace --workload=curie-sd --seed=1 --seconds=10
//                 [--inputs=build-sdbench/inputs] [--out=DIR]
//
// Each round replays the input twice:
//  1. the reference: load_trace() + Simulation + run(), tracing off, timing
//     ingest, construction and the replay;
//  2. the traced replay: TracedKernel below, which mirrors Simulation's event
//     loop using only public classes (Engine::step, a flat ClusterStateIndex,
//     NodeManager, ProgressTracker, MetricsCollector and the scheduler built
//     directly, with the kernel as its StartExecutor) and records a span
//     around every call into a layer.
// The traced replay must reproduce the reference's decisions digest and
// report JSON byte for byte, and its spans' self times must cover its wall
// time to within 5%; otherwise the round counts as failed. Rounds repeat
// until --seconds have passed. Times are the fastest over rounds; spans and
// counters come from the last round, whose spans are written as column
// arrays to <out>/trace-<workload>.json.
//
// The kernel handles only the configuration the workloads use (no app
// model, no runtime predictor, no reconfiguration overhead, one shard). It
// is scaffolding until the library carries its own per-layer timers.
#include <array>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "api/report.h"
#include "cluster/cluster_state_index.h"
#include "core/sd_policy.h"
#include "sched/backfill.h"
#include "sdbench.h"
#include "util/logging.h"

namespace {

using Clock = std::chrono::steady_clock;
using sdsched::EventHandle;
using sdsched::JobId;
using sdsched::SimTime;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Spans held in memory as columns: name, parent (-1 for a root), start and
/// end in nanoseconds since the log's origin.
class SpanLog {
 public:
  enum Name : std::uint8_t {
    kEnqueue,         ///< scheduling every submit event (root)
    kEvent,           ///< one fired event: heap pop + dispatch (root)
    kNotify,          ///< Scheduler::on_submit / on_finish
    kPass,            ///< Scheduler::schedule_pass
    kCommitStatic,    ///< executor start_static: NodeManager::start_static
    kCommitGuest,     ///< executor start_guest: mate stretch + NodeManager::start_guest
    kFinish,          ///< NodeManager::finish_job and the survivors' re-rating
    kRerate,          ///< ProgressTracker settle + set_rate_from_shares
    kMetricsCollect,  ///< MetricsCollector::on_complete, and the final summary
    kNameCount,
  };
  static constexpr std::array<const char*, kNameCount> kNames = {
      "enqueue", "event",  "notify", "pass",           "commit.static",
      "commit.guest", "finish", "rerate", "metrics.collect"};

  /// Opens a span as a child of the innermost open span.
  class Scope {
   public:
    Scope(SpanLog& log, Name name) : log_(log), id_(log.open(name)) {}
    ~Scope() { log_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::int32_t id_;
  };

  std::int32_t open(Name name) {
    const auto id = static_cast<std::int32_t>(name_.size());
    name_.push_back(name);
    parent_.push_back(current_);
    end_.push_back(0);
    current_ = id;
    start_.push_back(now_ns());
    return id;
  }

  void close(std::int32_t id) {
    end_[static_cast<std::size_t>(id)] = now_ns();
    current_ = parent_[static_cast<std::size_t>(id)];
  }

  /// Forget the most recent span, which must be open and childless.
  void discard(std::int32_t id) {
    current_ = parent_[static_cast<std::size_t>(id)];
    name_.pop_back();
    parent_.pop_back();
    start_.pop_back();
    end_.pop_back();
  }

  struct Stats {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
    double p50_us = 0.0;
    double p999_us = 0.0;
  };

  /// Per-name count, total and self time (duration minus the time its child
  /// spans cover), and duration percentiles.
  [[nodiscard]] std::array<Stats, kNameCount> stats() const {
    std::vector<std::int64_t> child_ns(name_.size(), 0);
    for (std::size_t i = 0; i < name_.size(); ++i) {
      if (parent_[i] >= 0) child_ns[static_cast<std::size_t>(parent_[i])] += end_[i] - start_[i];
    }
    std::array<Stats, kNameCount> out{};
    std::array<std::vector<double>, kNameCount> durations_us;
    for (std::size_t i = 0; i < name_.size(); ++i) {
      const std::int64_t duration = end_[i] - start_[i];
      Stats& s = out[name_[i]];
      ++s.count;
      s.total_s += static_cast<double>(duration) * 1e-9;
      s.self_s += static_cast<double>(duration - child_ns[i]) * 1e-9;
      durations_us[name_[i]].push_back(static_cast<double>(duration) * 1e-3);
    }
    for (std::size_t n = 0; n < kNameCount; ++n) {
      out[n].p50_us = sdbench::quantile(durations_us[n], 0.5);
      out[n].p999_us = sdbench::quantile(durations_us[n], 0.999);
    }
    return out;
  }

  void write_json(const std::string& path) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write " + path);
    sdsched::JsonWriter json(out, 0);
    json.begin_object();
    json.key("names");
    json.begin_array();
    for (const char* name : kNames) json.value(name);
    json.end_array();
    const auto column = [&json](const char* key, const auto& values) {
      json.key(key);
      json.begin_array();
      for (const auto v : values) json.value(static_cast<std::int64_t>(v));
      json.end_array();
    };
    column("name", name_);
    column("parent", parent_);
    column("start_ns", start_);
    column("end_ns", end_);
    json.end_object();
    json.finish();
    out.put('\n');
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_ = Clock::now();
  std::int32_t current_ = -1;
  std::vector<std::uint8_t> name_;
  std::vector<std::int32_t> parent_;
  std::vector<std::int64_t> start_;
  std::vector<std::int64_t> end_;
};

/// Simulation's event loop, rebuilt from public classes with a span around
/// every layer call. Statement for statement the same as api/simulation.cpp
/// on the configuration the constructor accepts.
class TracedKernel final : public sdsched::StartExecutor {
 public:
  TracedKernel(sdsched::SimulationConfig config, sdsched::Workload workload, SpanLog& spans)
      : config_(std::move(config)),
        workload_(std::move(workload)),
        machine_(config_.machine),
        index_(machine_, jobs_),
        node_mgr_(machine_, jobs_, drom_),
        tracker_(config_.execution_model),
        spans_(spans) {
    if (config_.use_app_model || config_.use_runtime_prediction ||
        config_.reconfig_overhead != 0 || config_.shards.count != 1 ||
        config_.max_events != 0 ||
        (config_.policy != sdsched::PolicyKind::Backfill &&
         config_.policy != sdsched::PolicyKind::SdPolicy)) {
      throw std::invalid_argument("TracedKernel: only the default backfill/SD config");
    }
    workload_.prepare_for(config_.machine.nodes, machine_.cores_per_node());
    for (const auto& spec : workload_.jobs()) jobs_.add(spec);
    if (config_.policy == sdsched::PolicyKind::SdPolicy) {
      auto sd = std::make_unique<sdsched::SdPolicyScheduler>(machine_, jobs_, *this,
                                                            config_.sched, config_.sd);
      sd_ = sd.get();
      scheduler_ = std::move(sd);
    } else {
      scheduler_ = std::make_unique<sdsched::BackfillScheduler>(machine_, jobs_, *this,
                                                               config_.sched);
    }
    scheduler_->set_cluster_index(&index_);
    engine_.set_handler([this](const sdsched::EventQueue::Fired& fired) { handle_event(fired); });
  }

  sdsched::SimulationReport run() {
    {
      const SpanLog::Scope span(spans_, SpanLog::kEnqueue);
      for (const auto& spec : workload_.jobs()) {
        engine_.schedule_at(spec.submit,
                            sdsched::Event{sdsched::EventKind::JobSubmit, spec.id});
      }
    }
    std::uint64_t fired = 0;
    for (;;) {
      const std::int32_t span = spans_.open(SpanLog::kEvent);
      if (!engine_.step()) {
        spans_.discard(span);
        break;
      }
      spans_.close(span);
      ++fired;
    }
    const SpanLog::Scope span(spans_, SpanLog::kMetricsCollect);
    machine_.finalize_energy(engine_.now());
    sdsched::SimulationReport report;
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
    return report;
  }

  void start_static(JobId id, const std::vector<int>& nodes) override {
    const SpanLog::Scope span(spans_, SpanLog::kCommitStatic);
    sdsched::Job& job = jobs_.at(id);
    const SimTime now = engine_.now();
    job.state = sdsched::JobState::Running;
    job.start_time = now;
    job.last_progress_update = now;
    job.work_done = 0.0;
    job.predicted_increase = 0;
    job.predicted_end = now + job.spec.req_time;
    node_mgr_.start_static(now, id, nodes);
    rerate(job, /*settle=*/false);
    schedule_finish(job);
  }

  void start_guest(JobId id, const sdsched::MatePlan& plan) override {
    const SpanLog::Scope span(spans_, SpanLog::kCommitGuest);
    sdsched::Job& job = jobs_.at(id);
    const SimTime now = engine_.now();
    job.state = sdsched::JobState::Running;
    job.start_time = now;
    job.last_progress_update = now;
    job.work_done = 0.0;
    job.predicted_increase = plan.guest_increase;
    job.predicted_end = now + job.spec.req_time + plan.guest_increase;
    for (std::size_t i = 0; i < plan.mates.size(); ++i) {
      sdsched::Job& mate = jobs_.at(plan.mates[i]);
      mate.predicted_increase += plan.mate_increases[i];
      mate.predicted_end += plan.mate_increases[i];
      index_.on_predicted_end_changed(plan.mates[i]);
    }
    for (const JobId mate_id : node_mgr_.start_guest(now, id, plan.nodes)) {
      reconfigure_job(mate_id);
    }
    rerate(job, /*settle=*/false);
    schedule_finish(job);
    ++malleable_starts_;
  }

  [[nodiscard]] const sdsched::BackfillScheduler& scheduler() const { return *scheduler_; }
  [[nodiscard]] const sdsched::SdPolicyScheduler* sd() const { return sd_; }
  [[nodiscard]] const sdsched::ClusterStateIndex& index() const { return index_; }
  [[nodiscard]] const std::vector<double>& queue_depths() const { return queue_depths_; }

 private:
  void rerate(sdsched::Job& job, bool settle) {
    const SpanLog::Scope span(spans_, SpanLog::kRerate);
    if (settle) tracker_.settle(job, engine_.now());
    tracker_.set_rate_from_shares(job, 1.0);
  }

  void schedule_finish(sdsched::Job& job) {
    if (job.finish_event != sdsched::kInvalidEvent) engine_.cancel(job.finish_event);
    const SimTime finish_at = engine_.now() + tracker_.remaining_wallclock(job);
    job.finish_event = engine_.schedule_at(
        finish_at, sdsched::Event{sdsched::EventKind::JobFinish, job.spec.id});
  }

  void reconfigure_job(JobId id) {
    sdsched::Job& job = jobs_.at(id);
    if (!job.running()) return;
    rerate(job, /*settle=*/true);
    job.pending_reconfig_ops = 0;
    schedule_finish(job);
  }

  void on_submit(JobId id) {
    {
      const SpanLog::Scope span(spans_, SpanLog::kNotify);
      scheduler_->on_submit(id);
    }
    if (config_.policy != sdsched::PolicyKind::SdPolicy &&
        config_.sched.priority.kind == sdsched::PriorityKind::Fcfs && !engine_.idle() &&
        engine_.next_time() == engine_.now() &&
        engine_.next_event().kind == sdsched::EventKind::JobSubmit) {
      ++submits_coalesced_;
      return;
    }
    run_pass();
  }

  void on_finish(JobId id, EventHandle handle) {
    sdsched::Job& job = jobs_.at(id);
    if (handle != job.finish_event) {
      sdsched::log_error("sdbench", "stale finish event for job ", id);
      return;
    }
    {
      const SpanLog::Scope span(spans_, SpanLog::kFinish);
      const SimTime now = engine_.now();
      tracker_.settle(job, now);
      job.state = sdsched::JobState::Completed;
      job.end_time = now;
      job.finish_event = sdsched::kInvalidEvent;
      for (const JobId other : node_mgr_.finish_job(now, id)) reconfigure_job(other);
    }
    {
      const SpanLog::Scope span(spans_, SpanLog::kMetricsCollect);
      metrics_.on_complete(job);
    }
    {
      const SpanLog::Scope span(spans_, SpanLog::kNotify);
      scheduler_->on_finish(id);
    }
    run_pass();
  }

  void run_pass() {
    ++passes_;
    queue_depths_.push_back(static_cast<double>(scheduler_->queue().size()));
    {
      const SpanLog::Scope span(spans_, SpanLog::kPass);
      scheduler_->schedule_pass(engine_.now());
    }
    arm_tick();
  }

  void arm_tick() {
    if (config_.sched.bf_interval <= 0) return;
    if (scheduler_->queue().empty()) {
      if (tick_event_ != sdsched::kInvalidEvent) {
        engine_.cancel(tick_event_);
        tick_event_ = sdsched::kInvalidEvent;
        ++ticks_cancelled_;
      }
      return;
    }
    if (tick_event_ != sdsched::kInvalidEvent) return;
    if (next_tick_ < engine_.now()) next_tick_ = engine_.now() + config_.sched.bf_interval;
    tick_event_ = engine_.schedule_at(
        next_tick_, sdsched::Event{sdsched::EventKind::SchedulerTick, sdsched::kInvalidJob});
  }

  void handle_event(const sdsched::EventQueue::Fired& fired) {
    switch (fired.event.kind) {
      case sdsched::EventKind::JobSubmit:
        on_submit(fired.event.job);
        break;
      case sdsched::EventKind::JobFinish:
        on_finish(fired.event.job, fired.handle);
        break;
      case sdsched::EventKind::SchedulerTick:
        next_tick_ = -1;
        tick_event_ = sdsched::kInvalidEvent;
        if (!scheduler_->queue().empty()) run_pass();
        break;
    }
  }

  sdsched::SimulationConfig config_;
  sdsched::Workload workload_;
  sdsched::Engine engine_;
  sdsched::Machine machine_;
  sdsched::JobRegistry jobs_;
  sdsched::ClusterStateIndex index_;
  sdsched::DromRegistry drom_;
  sdsched::NodeManager node_mgr_;
  sdsched::ProgressTracker tracker_;
  std::unique_ptr<sdsched::BackfillScheduler> scheduler_;
  const sdsched::SdPolicyScheduler* sd_ = nullptr;
  sdsched::MetricsCollector metrics_;
  SpanLog& spans_;

  std::uint64_t passes_ = 0;
  std::uint64_t malleable_starts_ = 0;
  std::uint64_t submits_coalesced_ = 0;
  std::uint64_t ticks_cancelled_ = 0;
  SimTime next_tick_ = -1;
  EventHandle tick_event_ = sdsched::kInvalidEvent;
  std::vector<double> queue_depths_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

int main(int argc, char** argv) {
  try {
    const sdbench::Options options = sdbench::Options::parse(argc, argv);
    const sdbench::InputDigest input = sdbench::digest_input(options.input_path());

    std::vector<double> ingest_s;
    std::vector<double> construct_s;
    std::vector<double> reference_s;
    std::vector<double> traced_s;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::unique_ptr<SpanLog> spans;
    std::unique_ptr<TracedKernel> kernel;
    sdsched::SimulationReport traced;
    const auto started = Clock::now();
    // A round is one reference replay plus one traced replay.
    while (attempted == 0 || seconds_since(started) < options.seconds) {
      attempted += 2;
      const auto ingest_start = Clock::now();
      const sdsched::LoadedTrace loaded = sdbench::load_input(options);
      const double ingest = seconds_since(ingest_start);
      const sdsched::SimulationConfig config = sdbench::config_for(*options.workload, loaded);
      const auto construct_start = Clock::now();
      sdsched::Simulation sim(config, loaded.workload);
      const double construct = seconds_since(construct_start);
      const auto reference_start = Clock::now();
      const sdsched::SimulationReport reference = sim.run();
      const double reference_wall = seconds_since(reference_start);

      auto round_spans = std::make_unique<SpanLog>();
      auto round_kernel = std::make_unique<TracedKernel>(config, loaded.workload, *round_spans);
      const auto traced_start = Clock::now();
      sdsched::SimulationReport round_report = round_kernel->run();
      const double traced_wall = seconds_since(traced_start);

      double covered_s = 0.0;
      for (const auto& s : round_spans->stats()) covered_s += s.self_s;
      std::string problem = sdbench::check_records(reference.records, input.rows);
      if (problem.empty() && (sdbench::records_digest(round_report.records) !=
                                  sdbench::records_digest(reference.records) ||
                              round_report.json() != reference.json())) {
        problem = "traced replay diverged from the reference";
      } else if (problem.empty() && std::abs(covered_s - traced_wall) > 0.05 * traced_wall) {
        problem = "span self times cover " + std::to_string(covered_s) + " s of " +
                  std::to_string(traced_wall) + " s traced wall";
      }
      if (!problem.empty()) {
        failed += 2;
        std::fprintf(stderr, "sdbench_trace: round %zu failed: %s\n", attempted / 2,
                     problem.c_str());
        continue;
      }
      ingest_s.push_back(ingest);
      construct_s.push_back(construct);
      reference_s.push_back(reference_wall);
      traced_s.push_back(traced_wall);
      spans = std::move(round_spans);
      kernel = std::move(round_kernel);
      traced = std::move(round_report);
    }
    if (!kernel) {
      std::fprintf(stderr, "sdbench_trace: no round passed\n");
      return 1;
    }

    const auto stats = spans->stats();
    const auto span = [&stats](SpanLog::Name name) -> const SpanLog::Stats& {
      return stats[name];
    };
    std::printf("%s seed %llu: traced replay reproduced decisions fnv1a %s\n",
                options.workload->name, static_cast<unsigned long long>(options.seed),
                sdbench::hex(sdbench::records_digest(traced.records)).c_str());
    std::printf("  %-16s %10s %12s %12s %12s %12s\n", "span", "count", "total_s", "self_s",
                "p50_us", "p99.9_us");
    for (std::size_t n = 0; n < SpanLog::kNameCount; ++n) {
      std::printf("  %-16s %10zu %12.6f %12.6f %12.3f %12.3f\n", SpanLog::kNames[n],
                  stats[n].count, stats[n].total_s, stats[n].self_s, stats[n].p50_us,
                  stats[n].p999_us);
    }

    const sdsched::BackfillScheduler& sched = kernel->scheduler();
    const sdsched::SdPolicyScheduler* sd = kernel->sd();
    const sdsched::MateSelector::SelectStats core =
        sd != nullptr ? sd->selector_stats() : sdsched::MateSelector::SelectStats{};
    const auto sd_count = [sd](auto getter) {
      return sd != nullptr ? static_cast<double>((sd->*getter)()) : 0.0;
    };
    const double ingest = sdbench::fastest(ingest_s);
    const double traced_wall = sdbench::fastest(traced_s);
    const double reference_wall = sdbench::fastest(reference_s);
    const double drom_start_s = span(SpanLog::kCommitStatic).self_s +
                                span(SpanLog::kCommitGuest).self_s;
    const auto reuses = static_cast<double>(sched.profile_reuses());
    const auto rebuilds = static_cast<double>(sched.profile_rebuilds());
    const auto count = [](std::uint64_t v) { return static_cast<double>(v); };

    const std::vector<sdbench::Metric> metrics = {
        {"workload.ingest_s", ingest, "s"},
        {"workload.rows_per_s", ratio(static_cast<double>(input.rows), ingest), "rows/s"},
        {"api.construct_s", sdbench::fastest(construct_s), "s"},
        {"sim.events", count(traced.events_fired), "count"},
        {"sim.self_s", span(SpanLog::kEvent).self_s + span(SpanLog::kEnqueue).self_s, "s"},
        {"sim.submits_coalesced", count(traced.submits_coalesced), "count"},
        {"sim.ticks_cancelled", count(traced.ticks_cancelled), "count"},
        {"sched.passes", count(traced.scheduling_passes), "count"},
        {"sched.pass_self_s", span(SpanLog::kPass).self_s, "s"},
        {"sched.pass_p50_us", span(SpanLog::kPass).p50_us, "us"},
        {"sched.pass_p999_us", span(SpanLog::kPass).p999_us, "us"},
        {"sched.pass_samples", count(span(SpanLog::kPass).count), "count"},
        {"sched.queue_depth_p50", sdbench::median(kernel->queue_depths()), "jobs"},
        {"sched.queue_depth_max", sdbench::quantile(kernel->queue_depths(), 1.0), "jobs"},
        {"sched.static_starts", count(span(SpanLog::kCommitStatic).count), "count"},
        {"sched.profile_reuses", reuses, "count"},
        {"sched.profile_rebuilds", rebuilds, "count"},
        {"sched.profile_reuse_ratio", ratio(reuses, reuses + rebuilds), "ratio"},
        {"sched.class_layer_builds", count(sched.class_layer_builds()), "count"},
        {"core.selects", count(core.selects), "count"},
        {"core.candidates_scanned", count(core.candidates_scanned), "count"},
        {"core.combinations_evaluated", count(core.combinations_evaluated), "count"},
        {"core.plans_found", count(core.plans_found), "count"},
        {"core.plan_yield", ratio(count(core.plans_found), count(core.selects)), "ratio"},
        {"core.estimate_rejections", sd_count(&sdsched::SdPolicyScheduler::estimate_rejections),
         "count"},
        {"core.selection_failures", sd_count(&sdsched::SdPolicyScheduler::selection_failures),
         "count"},
        {"core.rescans_avoided", sd_count(&sdsched::SdPolicyScheduler::rescans_avoided),
         "count"},
        {"core.ledger_skip_ratio",
         ratio(sd_count(&sdsched::SdPolicyScheduler::rescans_avoided),
               sd_count(&sdsched::SdPolicyScheduler::selection_failures)),
         "ratio"},
        {"core.budget_deferrals", sd_count(&sdsched::SdPolicyScheduler::budget_deferrals),
         "count"},
        {"core.guest_starts", count(traced.malleable_starts), "count"},
        {"drom.start_s", drom_start_s, "s"},
        {"drom.guest_start_frac", ratio(span(SpanLog::kCommitGuest).self_s, drom_start_s),
         "ratio"},
        {"drom.finish_s", span(SpanLog::kFinish).self_s, "s"},
        {"drom.shrink_ops", count(traced.drom_shrink_ops), "count"},
        {"drom.expand_ops", count(traced.drom_expand_ops), "count"},
        {"model.rerates", count(span(SpanLog::kRerate).count), "count"},
        {"model.rerate_s", span(SpanLog::kRerate).total_s, "s"},
        {"cluster.mutations", count(kernel->index().mutation_serial()), "count"},
        {"metrics.collect_s", span(SpanLog::kMetricsCollect).total_s, "s"},
        {"trace.wall_s", traced_wall, "s"},
        {"trace.overhead_frac", (traced_wall - reference_wall) / reference_wall, "ratio"},
    };
    if (!options.out.empty()) {
      spans->write_json(options.out + "/trace-" + options.workload->name + ".json");
    }
    sdbench::print_result(failed == 0, attempted, failed, metrics);
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sdbench_trace: %s\n", e.what());
    return 1;
  }
}

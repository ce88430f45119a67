#include "sched/backfill.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "api/report.h"
#include "cluster/cluster_state_index.h"
#include "util/logging.h"

namespace sdsched {

bool BackfillScheduler::try_malleable(SimTime /*now*/, Job& /*job*/,
                                      std::optional<SimTime>& /*est_start*/,
                                      const ReservationProfile& /*profile*/) {
  return false;  // static baseline: no malleability
}

void BackfillScheduler::annotate(SimulationReport& report) const {
  report.cancelled_jobs = cancelled_;
}

ReservationProfile& BackfillScheduler::pass_profile(SimTime now) {
  // A new pass invalidates the per-class layers and starts a reservation
  // log (the layers replay it; the estimate memo compares it with the
  // previous pass's); the shared base below survives when nothing changed.
  class_layers_.clear();
  std::swap(reserve_log_, prev_reserve_log_);
  reserve_log_.clear();
  ++pass_serial_;

  if (cluster_index_->crosscheck()) {
    std::string diagnosis;
    if (!cluster_index_->check_consistent(&diagnosis)) {
      throw std::logic_error("ClusterStateIndex diverged from the machine scan: " + diagnosis);
    }
  }
  if (profile_valid_ && profile_version_ == cluster_index_->version() &&
      profile_.first_release_time() > now) {
    // Nothing changed since the last pass and no release crossed `now`:
    // the base snapshot is still exact. Drop only the pass's reservations.
    profile_.clear_overlay();
    ++profile_reuses_;
    in_step_ = true;
    return profile_;
  }
  in_step_ = false;
  cluster_index_->busy_groups(now, scratch_groups_);
  profile_.set_base(machine_.node_count(), now, scratch_groups_);
  profile_version_ = cluster_index_->version();
  profile_valid_ = true;
  ++profile_rebuilds_;
  return profile_;
}

ReservationProfile* BackfillScheduler::class_profile(SimTime now,
                                                     const JobConstraints& constraints) {
  if (constraints.unconstrained()) return nullptr;
  const int classes = cluster_index_->class_count();
  if (classes <= 1 || classes > 64) return nullptr;  // class-blind profile is exact / no mask
  const std::uint64_t mask = cluster_index_->eligible_class_mask(constraints);
  const std::uint64_t all =
      classes == 64 ? ~0ull : ((1ull << static_cast<unsigned>(classes)) - 1);
  if (mask == all) return nullptr;  // attribute filters do not bite (e.g. contiguous-only)
  for (ClassLayer& layer : class_layers_) {
    if (layer.mask == mask) return &layer.profile;
  }
  ClassLayer layer;
  layer.mask = mask;
  cluster_index_->busy_groups_for_mask(mask, now, scratch_groups_);
  layer.profile.set_base(cluster_index_->node_count_for_mask(mask), now, scratch_groups_);
  // Replay what this pass reserved with no machine-state backing (the base
  // snapshot above already contains every start the pass applied — see
  // reserve_window). Reservations are class-blind node counts, so the
  // layer conservatively assumes they consume eligible nodes (estimates
  // may come out later than necessary, never too early — actual starts are
  // still gated by find_free_nodes).
  for (const WindowReserve& r : reserve_log_) {
    if (!r.occupancy_backed) layer.profile.reserve(r.start, r.end, r.nodes);
  }
  class_layers_.push_back(std::move(layer));
  ++class_layer_builds_;
  return &class_layers_.back().profile;
}

void BackfillScheduler::reserve_window(SimTime start, SimTime end, int nodes,
                                       bool occupancy_backed) {
  const WindowReserve window{start, end, nodes, occupancy_backed};
  const std::size_t at = reserve_log_.size();
  in_step_ = in_step_ && at < prev_reserve_log_.size() && prev_reserve_log_[at] == window;
  reserve_log_.push_back(window);
  profile_.reserve(start, end, nodes);
  // Layers already built predate this step either way: mirror into them.
  for (ClassLayer& layer : class_layers_) {
    layer.profile.reserve(start, end, nodes);
  }
}

SimTime BackfillScheduler::memo_estimate(SimTime now, const JobSpec& spec, SimTime planned) {
  if (spec.id >= estimate_memo_.size()) estimate_memo_.resize(std::size_t{spec.id} + 1);
  EstimateMemo& memo = estimate_memo_[spec.id];
  const auto position = static_cast<std::uint32_t>(reserve_log_.size());
  if (in_step_ && memo.pass + 1 == pass_serial_ && memo.position == position &&
      memo.req_nodes == spec.req_nodes && memo.planned == planned && memo.est >= now &&
      memo.est != ReservationProfile::kNever) {
    // The profile is the one the previous pass swept here, and that sweep
    // found no feasible start in [its now, est): none in [now, est) either.
    if (cluster_index_->crosscheck()) {
      const SimTime fresh = profile_.earliest_start(spec.req_nodes, planned, now);
      if (fresh != memo.est) {
        throw std::logic_error("estimate memo diverged from a fresh sweep: job " +
                               std::to_string(spec.id) + " at t=" + std::to_string(now) +
                               " cached " + std::to_string(memo.est) + ", fresh " +
                               std::to_string(fresh));
      }
    }
    memo.pass = pass_serial_;
    ++estimate_memo_hits_;
    return memo.est;
  }
  memo = EstimateMemo{pass_serial_, planned,
                      profile_.earliest_start(spec.req_nodes, planned, now), position,
                      spec.req_nodes};
  return memo.est;
}

SimTime BackfillScheduler::static_estimate(SimTime now, const JobSpec& spec,
                                           SimTime planned) {
  if (spec.constraints.unconstrained()) return memo_estimate(now, spec, planned);
  const SimTime est = profile_.earliest_start(spec.req_nodes, planned, now);
  if (est == ReservationProfile::kNever) return est;
  // The shared profile is class-blind; the class layer knows how many
  // *eligible* nodes are free over the window. Take the later of the two
  // answers — exact where the counts model applies.
  const ReservationProfile* layer = class_profile(now, spec.constraints);
  if (layer == nullptr) return est;
  const SimTime class_est = layer->earliest_start(spec.req_nodes, planned, now);
  assert(class_est != ReservationProfile::kNever &&
         "eligible-node cancel check bounds the class-layer capacity");
  return std::max(est, class_est);
}

bool BackfillScheduler::fits_now(SimTime now, const JobSpec& spec, SimTime planned) {
  const bool shared_fits = profile_.fits(spec.req_nodes, planned, now);
  if (spec.constraints.unconstrained()) return shared_fits;
  // Build the class layer even when the shared answer is already no: a
  // layer built later would see this pass's starts through its base
  // snapshot instead of as class-blind reservations.
  const ReservationProfile* layer = class_profile(now, spec.constraints);
  return shared_fits && (layer == nullptr || layer->fits(spec.req_nodes, planned, now));
}

void BackfillScheduler::schedule_pass(SimTime now) {
  require_cluster_index();
  if (queue_.empty()) return;
  const bool quiet_repeat = quiet_ && quiet_serial_ == cluster_index_->mutation_serial() &&
                            profile_.first_release_time() > now;
  if (!quiet_repeat) {
    run_pass(now);
    return;
  }
  if (!cluster_index_->crosscheck()) {
    ++passes_skipped_;
    return;
  }
  run_pass(now);
  if (!quiet_) {
    throw std::logic_error("quiet-pass skip diverged: the repeated pass at t=" +
                           std::to_string(now) + " started, cancelled or held a job");
  }
}

void BackfillScheduler::run_pass(SimTime now) {
  if (queue_.empty()) return;
  ReservationProfile& profile = pass_profile(now);
  bool quiet = true;
  int reservations = 0;
  int examined = 0;
  for (const JobId id : scheduling_order()) {
    if (examined++ >= config_.bf_max_jobs) break;
    Job& job = jobs_.at(id);
    const int req_nodes = job.spec.req_nodes;
    if (req_nodes > cluster_index_->eligible_node_count(job.spec.constraints)) {
      // No set of nodes can ever satisfy the request (§3.2.4 filtering).
      log_warn("backfill", "job ", id, " can never fit its constraints; cancelling");
      job.state = JobState::Cancelled;
      queue_.remove(id);
      ++cancelled_;
      quiet = false;
      continue;
    }
    const SimTime planned = effective_req_time(job.spec);
    const bool reserving = reservations < config_.reservation_depth;
    // While reservations remain the full estimate is needed anyway; past
    // the depth only "does it start now?" is, and fits() answers it.
    std::optional<SimTime> est;
    if (reserving) {
      est = static_estimate(now, job.spec, planned);
      if (*est == ReservationProfile::kNever) {
        // Larger than the machine (cannot happen for prepared workloads).
        // Past the depth the eligible-node check above cancels these; a
        // job blocked only by a permanent reservation stays queued there.
        log_warn("backfill", "job ", id, " can never fit; cancelling");
        job.state = JobState::Cancelled;
        queue_.remove(id);
        ++cancelled_;
        quiet = false;
        continue;
      }
    }
    if (reserving ? *est == now : fits_now(now, job.spec, planned)) {
      quiet = false;
      const auto nodes = cluster_index_->find_free_nodes(req_nodes, &job.spec.constraints);
      if (nodes) {
        queue_.remove(id);
        reserve_window(now, now + std::max<SimTime>(planned, 1), req_nodes,
                       /*occupancy_backed=*/true);
        executor_.start_static(id, *nodes);
        on_job_started(id);
        continue;
      }
      if (job.spec.constraints.unconstrained()) {
        // The profile's availability at `now` mirrors the machine exactly
        // for unconstrained jobs; divergence means kernel bookkeeping broke.
        if (cluster_index_->crosscheck()) {
          throw std::logic_error("backfill: profile/machine divergence for job " +
                                 std::to_string(id) + " at t=" + std::to_string(now));
        }
        log_error("backfill", "profile/machine divergence for job ", id);
        continue;
      }
      // Constrained job the counts model could not protect: only reachable
      // for contiguous requests (fragmentation is invisible to per-class
      // counts) and for machines with more than 64 attribute classes (no
      // class layer). Hold the nodes conservatively and retry next pass.
      if (reserving) {
        reserve_window(now, now + std::max<SimTime>(planned, 1), req_nodes,
                       /*occupancy_backed=*/false);
        ++reservations;
      }
      continue;
    }
    if (try_malleable(now, job, est, profile)) {
      quiet = false;
      queue_.remove(id);
      continue;
    }
    if (reserving) {
      reserve_window(*est, *est + std::max<SimTime>(planned, 1), req_nodes,
                     /*occupancy_backed=*/false);
      ++reservations;
    }
  }
  quiet_ = quiet;
  quiet_serial_ = cluster_index_->mutation_serial();
}

}  // namespace sdsched

#include "sched/backfill.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "api/report.h"
#include "cluster/cluster_state_index.h"
#include "util/logging.h"

namespace sdsched {

bool BackfillScheduler::try_malleable(SimTime /*now*/, Job& /*job*/, SimTime /*est_start*/,
                                      ReservationProfile& /*profile*/) {
  return false;  // static baseline: no malleability
}

void BackfillScheduler::annotate(SimulationReport& report) const {
  report.cancelled_jobs = cancelled_;
}

int BackfillScheduler::eligible_nodes(const JobConstraints& constraints) const {
  return cluster_index_->eligible_node_count(constraints);
}

ReservationProfile& BackfillScheduler::pass_profile(SimTime now) {
  // A new pass invalidates the per-class layers and the reservation log
  // they replay; the shared base below survives when nothing changed.
  class_layers_.clear();
  pass_reserves_.clear();

  if (cluster_index_->crosscheck()) {
    std::string diagnosis;
    if (!cluster_index_->check_consistent(&diagnosis)) {
      throw std::logic_error("ClusterStateIndex diverged from the machine scan: " + diagnosis);
    }
  }
  if (profile_valid_ && profile_version_ == cluster_index_->version() &&
      profile_.first_release_time() > now) {
    // Nothing changed since the last pass and no release crossed `now`:
    // the base snapshot is still exact. Drop only the pass overlay.
    profile_.clear_overlay();
    ++profile_reuses_;
    return profile_;
  }
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
  for (const WindowReserve& r : pass_reserves_) {
    layer.profile.reserve(r.start, r.end, r.nodes);
  }
  class_layers_.push_back(std::move(layer));
  ++class_layer_builds_;
  return &class_layers_.back().profile;
}

void BackfillScheduler::reserve_window(SimTime start, SimTime end, int nodes,
                                       bool occupancy_backed) {
  profile_.reserve(start, end, nodes);
  if (!occupancy_backed) pass_reserves_.push_back(WindowReserve{start, end, nodes});
  // Layers already built predate this step either way: mirror into them.
  for (ClassLayer& layer : class_layers_) {
    layer.profile.reserve(start, end, nodes);
  }
}

void BackfillScheduler::schedule_pass(SimTime now) {
  require_cluster_index();
  if (queue_.empty()) return;
  ReservationProfile& profile = pass_profile(now);
  int reservations = 0;
  int examined = 0;
  for (const JobId id : scheduling_order(now)) {
    if (examined++ >= config_.bf_max_jobs) break;
    Job& job = jobs_.at(id);
    const int req_nodes = job.spec.req_nodes;
    if (req_nodes > eligible_nodes(job.spec.constraints)) {
      // No set of nodes can ever satisfy the request (§3.2.4 filtering).
      log_warn("backfill", "job ", id, " can never fit its constraints; cancelling");
      job.state = JobState::Cancelled;
      queue_.remove(id);
      ++cancelled_;
      continue;
    }
    const SimTime planned = effective_req_time(job.spec);
    SimTime est = profile.earliest_start(req_nodes, planned, now);
    if (est == ReservationProfile::kNever) {
      // Larger than the machine (cannot happen for prepared workloads).
      log_warn("backfill", "job ", id, " can never fit; cancelling");
      job.state = JobState::Cancelled;
      queue_.remove(id);
      ++cancelled_;
      continue;
    }
    if (!job.spec.constraints.unconstrained()) {
      // The shared profile is class-blind; the class layer knows how many
      // *eligible* nodes are free over the window. Take the later of the
      // two answers — exact where the counts model applies.
      if (ReservationProfile* layer = class_profile(now, job.spec.constraints)) {
        const SimTime class_est = layer->earliest_start(req_nodes, planned, now);
        assert(class_est != ReservationProfile::kNever &&
               "eligible-node cancel check bounds the class-layer capacity");
        est = std::max(est, class_est);
      }
    }
    if (est == now) {
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
        log_error("backfill", "profile/machine divergence for job ", id);
        continue;
      }
      // Constrained job the counts model could not protect: only reachable
      // for contiguous requests (fragmentation is invisible to per-class
      // counts) and for machines with more than 64 attribute classes (no
      // class layer). Hold the nodes conservatively and retry next pass.
      if (reservations < config_.reservation_depth) {
        reserve_window(now, now + std::max<SimTime>(planned, 1), req_nodes,
                       /*occupancy_backed=*/false);
        ++reservations;
      }
      continue;
    }
    if (try_malleable(now, job, est, profile)) {
      queue_.remove(id);
      continue;
    }
    if (reservations < config_.reservation_depth) {
      reserve_window(est, est + std::max<SimTime>(planned, 1), req_nodes,
                     /*occupancy_backed=*/false);
      ++reservations;
    }
  }
}

}  // namespace sdsched

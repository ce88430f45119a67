#include "core/sd_policy.h"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "api/report.h"
#include "cluster/cluster_state_index.h"
#include "model/runtime_model.h"
#include "util/logging.h"

namespace sdsched {

namespace {

/// `sd`, or std::invalid_argument naming the first out-of-range field (a NaN
/// sharing_factor would reach the mate budgets' int cast; a NaN MAXSD never cuts).
const SdConfig& validated(const SdConfig& sd) {
  const auto reject = [](const char* field, const char* rule, double value) {
    std::ostringstream oss;
    oss << "SdConfig." << field << " must be " << rule << ", got " << value;
    throw std::invalid_argument(oss.str());
  };
  if (!(sd.sharing_factor > 0.0 && sd.sharing_factor <= 1.0)) {
    reject("sharing_factor", "a number in (0, 1]", sd.sharing_factor);
  }
  if (sd.max_mates < 1) reject("max_mates", ">= 1", sd.max_mates);
  if (sd.max_candidates < 0) reject("max_candidates", ">= 0", sd.max_candidates);
  if (sd.scan.guest_budget < 0) reject("scan.guest_budget", ">= 0", sd.scan.guest_budget);
  if (sd.cutoff.kind == CutoffKind::Static && !(sd.cutoff.value > 0.0)) {
    reject("cutoff.value", "a number > 0 for a Static cut-off", sd.cutoff.value);
  }
  return sd;
}

}  // namespace

SdPolicyScheduler::SdPolicyScheduler(Machine& machine, JobRegistry& jobs,
                                     StartExecutor& executor, SchedConfig sched_config,
                                     SdConfig sd_config)
    : BackfillScheduler(machine, jobs, executor, sched_config),
      sd_config_(validated(sd_config)),
      selector_(machine, jobs, sd_config_, mate_registry_) {
  // Warm-start scenarios construct the scheduler against running jobs.
  mate_registry_.seed(jobs_);
}

void SdPolicyScheduler::schedule_pass(SimTime now) {
  require_cluster_index();
  if (cluster_index_->crosscheck()) {
    std::string diagnosis;
    if (!mate_registry_.check_consistent(jobs_, &diagnosis)) {
      throw std::logic_error("MateRegistry diverged from the job scan: " + diagnosis);
    }
  }
  guests_considered_ = 0;
  // Never the quiet-pass skip: Listing 1's mall_end moves with `now`.
  run_pass(now);
}

void SdPolicyScheduler::annotate(SimulationReport& report) const {
  BackfillScheduler::annotate(report);
  report.sd_estimate_rejections = estimate_rejections_;
  report.sd_selection_failures = selection_failures_;
  report.sd_rescans_avoided = rescans_avoided_;
  report.sd_budget_deferrals = budget_deferrals_;
}

double SdPolicyScheduler::pass_cutoff(SimTime now) {
  const std::uint64_t serial = cluster_index_->mutation_serial();
  if (!cutoff_cache_valid_ || cutoff_serial_ != serial) {
    // At a fixed serial the cut-off is now-independent: the running set is
    // fixed (every start and finish writes a node), a running job's wait
    // froze at its start, and predicted increases only move with machine
    // mutations.
    cutoff_value_ = compute_cutoff(sd_config_.cutoff, jobs_, mate_registry_.running(), now);
    cutoff_serial_ = serial;
    cutoff_cache_valid_ = true;
  } else if (cluster_index_->crosscheck()) {
    const double fresh =
        compute_cutoff(sd_config_.cutoff, jobs_, mate_registry_.running(), now);
    if (fresh != cutoff_value_) {
      std::ostringstream oss;
      // Round-trip digits: a real divergence can sit far past the 6th.
      oss << std::setprecision(std::numeric_limits<double>::max_digits10)
          << "SD cutoff cache diverged from a fresh computation: cached " << cutoff_value_
          << ", fresh " << fresh << " at t=" << now;
      throw std::logic_error(oss.str());
    }
  }
  return cutoff_value_;
}

bool SdPolicyScheduler::try_malleable(SimTime now, Job& job,
                                      std::optional<SimTime>& est_start,
                                      const ReservationProfile& profile) {
  if (!job.can_start_shrunk()) return false;

  // Top-K slice: the budget counts guests *considered* — estimate
  // rejections, ledger skips and real mate searches all take a slot — so a
  // bounded pass sees a prefix of the priority order and the ledger can
  // never change which guests reach this point.
  if (sd_config_.scan.guest_budget > 0) {
    if (guests_considered_ >= sd_config_.scan.guest_budget) {
      ++budget_deferrals_;
      return false;
    }
    ++guests_considered_;
  }

  // Listing 1: pre-selection estimate. Malleability must beat the static
  // wait before we even search for mates. All estimates use the scheduler's
  // working duration (the prediction when future-work #2 is enabled). The
  // static estimate is swept only here, past the cheap rejections above.
  const SimTime planned = effective_req_time(job.spec);
  if (!est_start) est_start = static_estimate(now, job.spec, planned);
  const SimTime static_end = *est_start + planned;
  const SimTime mall_end_quick = now + quick_duration(planned, sd_config_.sharing_factor);
  if (static_end <= mall_end_quick) {
    ++estimate_rejections_;
    return false;
  }

  const double cutoff = pass_cutoff(now);

  // Free nodes a plan may borrow without displacing this pass's
  // reservations: whatever stays free for the quick-estimate duration.
  // One sweep over the window (min availability == the largest request
  // that starts now), instead of one earliest_start probe per count.
  int max_free_nodes = 0;
  if (sd_config_.include_free_nodes) {
    const SimTime d0 = mall_end_quick - now;
    const int cap = std::min(machine_.free_node_count(), job.spec.req_nodes - 1);
    if (cap >= 1) {
      max_free_nodes = std::clamp(profile.min_available(now, d0), 0, cap);
      if (max_free_nodes > 0 && !job.spec.constraints.unconstrained()) {
        // The shared profile counts ineligible nodes as available; the
        // class layer keeps a constrained guest from over-capping its
        // free-node budget with nodes its plan could never take.
        if (const ReservationProfile* layer = class_profile(now, job.spec.constraints)) {
          max_free_nodes = std::clamp(layer->min_available(now, d0), 0, max_free_nodes);
        }
      }
    }
  }

  // Failed-select ledger: skip the search when this guest's last failure
  // provably still stands (docs/determinism.md "Scan-ledger skip safety").
  if (scan_ledger_.can_skip(job.spec.id, cluster_index_->mutation_serial(), planned,
                            max_free_nodes, now)) {
    if (cluster_index_->crosscheck() &&
        selector_.select(job, now, cutoff, max_free_nodes, planned)) {
      std::ostringstream oss;
      oss << "GuestScanLedger skip diverged from the full mate search: job "
          << job.spec.id << " at t=" << now << " has a plan";
      throw std::logic_error(oss.str());
    }
    ++selection_failures_;  // decision parity: the full search would fail too
    ++rescans_avoided_;
    return false;
  }

  const auto plan = selector_.select(job, now, cutoff, max_free_nodes, planned);
  if (!plan) {
    ++selection_failures_;
    GuestScanLedger::Entry entry;
    entry.serial = cluster_index_->mutation_serial();
    entry.planned = planned;
    entry.max_free = max_free_nodes;
    const MateSelector::ScanSummary& scan = selector_.last_scan();
    entry.valid_until =
        scan.truncated ? scan.kept_min_end : std::numeric_limits<SimTime>::max();
    scan_ledger_.record(job.spec.id, entry);
    return false;
  }

  // Re-check the decision with the plan's exact increase (the quick
  // estimate assumed a uniform SharingFactor split).
  const SimTime mall_end = now + planned + plan->guest_increase;
  if (static_end <= mall_end) {
    ++estimate_rejections_;
    return false;
  }

  // Keep the pass profile truthful: mates now hold their nodes longer, and
  // any free nodes the guest borrowed are occupied until mall_end.
  // These windows are occupancy-backed: start_guest below stretches the
  // mates' predicted ends and occupies the borrowed free nodes, so the
  // index (and any class layer built later this pass) sees them directly.
  for (std::size_t i = 0; i < plan->mates.size(); ++i) {
    const Job& mate = jobs_.at(plan->mates[i]);
    if (plan->mate_increases[i] > 0) {
      reserve_window(mate.predicted_end, mate.predicted_end + plan->mate_increases[i],
                     mate.spec.req_nodes, /*occupancy_backed=*/true);
    }
  }
  int free_borrowed = 0;
  for (const auto& entry : plan->nodes) {
    if (entry.mate == kInvalidJob) ++free_borrowed;
  }
  if (free_borrowed > 0) {
    reserve_window(now, mall_end, free_borrowed, /*occupancy_backed=*/true);
  }

  log_debug("sd", "job ", job.spec.id, " -> malleable start, ", plan->mates.size(),
            " mates, PI=", plan->performance_impact, ", saves ",
            static_end - mall_end, "s");
  executor_.start_guest(job.spec.id, *plan);
  on_job_started(job.spec.id);
  ++malleable_starts_;
  return true;
}

}  // namespace sdsched

// SD-Policy: slowdown-driven malleable backfill (paper §3.1, Listing 1).
//
// A variant of backfill: each waiting job first gets the static trial (the
// base class); when that cannot start it *now* and the job can start shrunk,
// the policy estimates whether malleability would beat the static wait —
//
//   static_end = estimated_start + req_time      (reservation profile)
//   mall_end   = now + req_time + increase       (worst-case model, §3.4)
//
// — and only when static_end > mall_end asks the MateSelector for the
// minimum-Performance-Impact mate set. A successful plan starts the job
// immediately on the mates' shrunk shares, extends the mates' predicted
// ends, and keeps the pass's reservation profile consistent. Backfill hands
// over the static estimate only while it still reserves; otherwise the
// policy sweeps it after the can_start_shrunk and guest-budget checks, at
// most once per guest per pass. SD passes never take backfill's quiet-pass
// skip: mall_end moves with `now`.
//
// The policy owns a MateRegistry — running / mate id sets, mates hosting a
// guest left out, fed by the start and finish notifications the schedulers emit — so
// neither the DynAVGSD cut-off nor candidate collection rescans the whole
// job registry per malleable-start attempt.
// Under the cluster index's crosscheck() switch every pass re-derives the
// registry by brute force and throws std::logic_error on disagreement.
//
// Saturated-queue bounds (SdConfig::scan, see core/guest_scan_policy.h):
// an optional top-K guest budget slices each pass to the head of the
// queue order, and the failed-select ledger skips mate searches whose
// previous failure provably still stands — keyed on (mutation_serial,
// planned, max_free) plus valid_until. Every start, finish and
// reconfiguration writes a node before the MateRegistry hears of it, so an
// unchanged serial also pins the running population. The DynAVGSD cut-off
// rides the same serial in a one-slot cache: at a fixed serial it is
// now-independent, since running jobs' waits froze at their starts. Under
// the same crosscheck() switch every skipped search re-runs in full and
// every cache hit is recomputed, throwing std::logic_error on divergence.
#pragma once

#include "core/cutoff.h"
#include "core/guest_scan_policy.h"
#include "core/mate_registry.h"
#include "core/mate_selector.h"
#include "core/sd_config.h"
#include "sched/backfill.h"

namespace sdsched {

class SdPolicyScheduler final : public BackfillScheduler {
 public:
  /// Throws std::invalid_argument naming any out-of-range SdConfig field and
  /// its value.
  SdPolicyScheduler(Machine& machine, JobRegistry& jobs, StartExecutor& executor,
                    SchedConfig sched_config, SdConfig sd_config);

  [[nodiscard]] const char* name() const noexcept override { return "sd-policy"; }
  [[nodiscard]] const SdConfig& sd_config() const noexcept { return sd_config_; }

  void schedule_pass(SimTime now) override;

  void annotate(SimulationReport& report) const override;

  void set_cluster_index(const ClusterStateIndex* index) noexcept override {
    BackfillScheduler::set_cluster_index(index);
    selector_.set_cluster_index(index);
  }

  void on_finish(JobId job) override {
    mate_registry_.on_finish(jobs_.at(job), jobs_);
    BackfillScheduler::on_finish(job);
  }

  // Decision counters (observability; Fig. 7 uses kernel-side records).
  [[nodiscard]] std::uint64_t malleable_starts() const noexcept { return malleable_starts_; }
  [[nodiscard]] std::uint64_t estimate_rejections() const noexcept {
    return estimate_rejections_;
  }
  [[nodiscard]] std::uint64_t selection_failures() const noexcept {
    return selection_failures_;
  }
  /// Mate searches the failed-select ledger skipped (each also counts as a
  /// selection failure, so the failure totals match the unbounded pass).
  [[nodiscard]] std::uint64_t rescans_avoided() const noexcept { return rescans_avoided_; }
  /// Guests turned away by an exhausted per-pass budget.
  [[nodiscard]] std::uint64_t budget_deferrals() const noexcept { return budget_deferrals_; }

  /// Mate-selection work counters.
  [[nodiscard]] const MateSelector::SelectStats& selector_stats() const noexcept {
    return selector_.stats();
  }

 protected:
  bool try_malleable(SimTime now, Job& job, std::optional<SimTime>& est_start,
                     const ReservationProfile& profile) override;

  void on_job_started(JobId job) override { mate_registry_.on_start(jobs_.at(job), jobs_); }

 private:
  /// This pass's MAX_SLOWDOWN cut-off, through the one-slot
  /// mutation_serial cache.
  [[nodiscard]] double pass_cutoff(SimTime now);

  SdConfig sd_config_;
  MateRegistry mate_registry_;
  MateSelector selector_;
  GuestScanLedger scan_ledger_;
  int guests_considered_ = 0;   ///< this pass, against scan.guest_budget
  bool cutoff_cache_valid_ = false;
  std::uint64_t cutoff_serial_ = 0;
  double cutoff_value_ = 0.0;
  std::uint64_t malleable_starts_ = 0;
  std::uint64_t estimate_rejections_ = 0;
  std::uint64_t selection_failures_ = 0;
  std::uint64_t rescans_avoided_ = 0;
  std::uint64_t budget_deferrals_ = 0;
};

}  // namespace sdsched

// Static backfill scheduler (the paper's baseline, and the base class of
// SD-Policy).
//
// Every pass refreshes the reservation profile — the base snapshot comes
// from the attached ClusterStateIndex (a pass without one throws
// std::logic_error) and is *reused* across passes while the
// cluster is unchanged; the profile's step array is restored from its
// saved base copy, dropping the pass's own reservations, which are then
// re-derived. The pass then walks the wait queue in arrival order:
//   * a job whose earliest feasible start is *now* starts immediately;
//   * otherwise the policy hook try_malleable() may co-schedule it
//     (SD-Policy overrides this; the static baseline declines);
//   * otherwise the job receives a reservation (up to reservation_depth,
//     i.e. EASY with depth 1, conservative-ish with more), which later jobs
//     in the same pass must not delay.
// The resulting decisions are identical to the historical rebuild-per-pass
// scheme (SLURM backfill-cycle semantics); only the cost changed.
//
// Two shortcuts skip work no decision reads:
//   * the full static estimate (a sweep of the profile, maxed with the
//     class layer for constrained jobs) is computed only while
//     reservations remain, where the reservation needs it; est == now
//     doubles as the "fits now" answer. Past reservation_depth a job can
//     only start now, so the pass asks ReservationProfile::fits(), which
//     stops at the first breakpoint that falls short. Past the depth
//     try_malleable() receives no estimate and computes it only if it
//     needs one — SD-Policy does so after its cheap rejections, so a
//     budget-deferred guest never pays for a sweep;
//   * schedule_pass() returns at once when it would repeat a quiet pass —
//     the previous pass started, cancelled and held nothing, no job was
//     submitted since, the cluster's mutation_serial() is unchanged and no
//     release breakpoint has reached `now`. Such a pass would recompute
//     the same estimates and reservations (docs/determinism.md "Quiet-pass
//     skip safety"), as SLURM's backfill skips a cycle with no new work.
//     passes_skipped() counts them; under the crosscheck switch every
//     would-be-skipped pass runs and throws std::logic_error if it starts,
//     cancels or holds anything. SD-Policy runs the unskipped body
//     (run_pass()): its Listing 1 estimate moves with `now`.
//
// A pass that repeats its predecessor's reservations also repeats its
// estimates. Every reserve_window() call is logged in order, and the log
// of the previous pass is kept. A pass that reused the base starts *in
// step* with its predecessor and stays so while each reservation equals
// the predecessor's at the same log position; in step, the profile at a
// position is byte-equal to the predecessor's there. An unconstrained
// job's static_estimate() then returns the estimate the predecessor swept
// at the same position (same request and planned duration) when it is
// still >= now: no start in [previous now, estimate) was feasible, so none
// in [now, estimate) is (docs/determinism.md "Estimate-memo safety").
// estimate_memo_hits() counts them; under the crosscheck switch every hit
// is re-swept and a divergence throws std::logic_error. Constrained jobs
// always sweep: their class layers are rebuilt every pass.
//
// Constrained jobs additionally read a per-attribute-class profile layer:
// the shared profile is class-blind, so a job whose constraints exclude
// part of the machine used to see over-optimistic earliest starts and fall
// back to a conservative hold-and-retry when the promised nodes turned out
// ineligible. class_profile() assembles (per pass, lazily, cached per
// eligible-class mask) a profile over just the eligible classes from the
// index's per-class release groups; constrained
// estimates take the max of the shared and class-restricted answers, which
// eliminates the hold-and-retry for attribute-constrained jobs (contiguity
// is not modelled by counts, so contiguous requests keep the fallback).
// Pass reservations are mirrored into every built layer (conservatively
// class-blind: a reservation may consume eligible nodes, so layers assume
// it does). Unconstrained workloads never build a layer and behave — and
// decide — exactly as before.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sched/reservation.h"
#include "sched/scheduler.h"

namespace sdsched {

class BackfillScheduler : public Scheduler {
 public:
  using Scheduler::Scheduler;

  /// One pass, or nothing when it would repeat a quiet pass (header comment).
  void schedule_pass(SimTime now) override;
  void on_submit(JobId job) override {
    quiet_ = false;
    Scheduler::on_submit(job);
  }
  [[nodiscard]] const char* name() const noexcept override { return "backfill"; }
  void annotate(SimulationReport& report) const override;

  /// Jobs dropped because they can never fit the machine.
  [[nodiscard]] std::uint64_t cancelled_jobs() const noexcept { return cancelled_; }

  /// Base-snapshot refreshes skipped because the cluster was unchanged
  /// since the previous pass (observability).
  [[nodiscard]] std::uint64_t profile_reuses() const noexcept { return profile_reuses_; }
  [[nodiscard]] std::uint64_t profile_rebuilds() const noexcept { return profile_rebuilds_; }

  /// Passes that returned at once because they would repeat a quiet pass.
  [[nodiscard]] std::uint64_t passes_skipped() const noexcept { return passes_skipped_; }

  /// Per-class profile layers assembled for constrained jobs (observability).
  [[nodiscard]] std::uint64_t class_layer_builds() const noexcept {
    return class_layer_builds_;
  }

  /// Static estimates answered from the previous pass's sweep at the same
  /// reservation-log position instead of a new sweep (header comment).
  [[nodiscard]] std::uint64_t estimate_memo_hits() const noexcept {
    return estimate_memo_hits_;
  }

 protected:
  /// The pass body schedule_pass() runs unless it skips a quiet repeat.
  /// Requires an attached cluster index.
  void run_pass(SimTime now);

  /// Policy hook: attempt a malleable start for `job`, which cannot start
  /// now. `est_start` is its static earliest start (> now) when the pass
  /// already swept it, else empty; a hook that needs it fills it with
  /// static_estimate() before reserving anything, and the pass reuses it.
  /// `profile` is the pass profile, read-only here: implementations must
  /// apply the start through the executor, keep the profile truthful
  /// (extend mates' occupancy, reserve free nodes they consume) through
  /// reserve_window, which also keeps the class layers and the estimate
  /// memo's log in step, and return true.
  virtual bool try_malleable(SimTime now, Job& job, std::optional<SimTime>& est_start,
                             const ReservationProfile& profile);

  /// Shared-profile earliest start maxed with the class layer's; kNever
  /// when the request exceeds the machine.
  [[nodiscard]] SimTime static_estimate(SimTime now, const JobSpec& spec, SimTime planned);

  /// The pass profile: base snapshot refreshed only when the cluster index
  /// reports a change (or a release breakpoint crossed `now`), otherwise
  /// restored from the saved base copy.
  [[nodiscard]] ReservationProfile& pass_profile(SimTime now);

  /// The per-pass profile layer restricted to `constraints`' eligible
  /// attribute classes, or nullptr when the class-blind profile is already
  /// exact (unconstrained request, single-class machine, attribute filters
  /// matching every class) or the machine has more than 64 attribute
  /// classes. Built lazily once per
  /// (pass, eligible-class mask) with this pass's reservations replayed.
  /// The pointer is invalidated by the next class_profile() call.
  [[nodiscard]] ReservationProfile* class_profile(SimTime now,
                                                  const JobConstraints& constraints);

  /// Reserve on the shared pass profile AND mirror into every class layer
  /// already built this pass, logging the call (the estimate memo compares
  /// logs). All pass reservations must go through here.
  ///
  /// `occupancy_backed` says the reserved window corresponds to a start the
  /// executor applies in this very step (static start, mate stretch, free
  /// nodes a guest borrows): the cluster index reflects it from the moment
  /// the start lands, so a class layer built *later* in the pass already
  /// sees it in its base snapshot and must NOT replay it — only windows
  /// with no machine-state backing (reservations for future starts, the
  /// contiguous hold-and-retry) are replayed into a new layer.
  void reserve_window(SimTime start, SimTime end, int nodes, bool occupancy_backed);

 private:
  /// static_estimate(...) == now, answered by ReservationProfile::fits().
  [[nodiscard]] bool fits_now(SimTime now, const JobSpec& spec, SimTime planned);

  /// The shared-profile sweep for an unconstrained job, or the previous
  /// pass's answer when the memo proves it unchanged (header comment).
  [[nodiscard]] SimTime memo_estimate(SimTime now, const JobSpec& spec, SimTime planned);

  std::uint64_t cancelled_ = 0;
  std::uint64_t passes_skipped_ = 0;
  std::uint64_t profile_reuses_ = 0;
  std::uint64_t profile_rebuilds_ = 0;
  std::uint64_t class_layer_builds_ = 0;
  std::uint64_t estimate_memo_hits_ = 0;

  ReservationProfile profile_;
  std::uint64_t profile_version_ = 0;  ///< index version the base reflects
  bool profile_valid_ = false;
  std::vector<std::pair<SimTime, int>> scratch_groups_;  ///< reused allocation

  bool quiet_ = false;  ///< last pass decided nothing; no submit since
  std::uint64_t quiet_serial_ = 0;  ///< mutation_serial() after that pass

  struct ClassLayer {
    std::uint64_t mask = 0;  ///< eligible-class bit set this layer covers
    ReservationProfile profile;
  };
  struct WindowReserve {
    SimTime start;
    SimTime end;
    int nodes;
    bool occupancy_backed;  ///< class layers skip these (reserve_window)
    bool operator==(const WindowReserve&) const = default;
  };
  std::vector<ClassLayer> class_layers_;  ///< this pass's layers (lazily built)

  /// One job's last unconstrained static estimate and where it was swept.
  struct EstimateMemo {
    std::uint64_t pass = 0;     ///< pass_serial_ of the pass that swept it (0: none)
    SimTime planned = 0;
    SimTime est = 0;
    std::uint32_t position = 0; ///< reserve_window() calls before it in that pass
    int req_nodes = 0;
  };
  std::uint64_t pass_serial_ = 0;          ///< run_pass() count
  bool in_step_ = false;                   ///< profile still equals the predecessor's
  std::vector<WindowReserve> reserve_log_; ///< this pass's reserve_window() calls, in order
  std::vector<WindowReserve> prev_reserve_log_;  ///< the previous pass's log
  std::vector<EstimateMemo> estimate_memo_;      ///< by JobId, grown as jobs arrive
};

}  // namespace sdsched

// Malleable resource selection (paper §3.2, Listing 2) — the simulator's
// analogue of the modified SLURM select/linear plug-in.
//
// Given a guest job that cannot start statically, find the set of running
// "mates" to shrink, minimizing the Performance Impact
//
//   PI = min Σ x_i · p_i                         (Eq. 1)
//   p_i = (wait_i + increase_i + req_i) / req_i  (Eq. 4)
//
// subject to p_i < MAX_SLOWDOWN (Eq. 2) and Σ x_i · w_i = W (Eq. 3), where
// w_i is mate i's node count and W the guest's. Additional constraints from
// §3.2.4/§3.3: at most `m` mates per plan, at most one guest per mate (so
// per node), a mate keeps at least one cpu per MPI rank, a guest takes at
// most SharingFactor of a node's cores from its owner, and the guest's
// predicted end must fall inside every mate's allocation.
//
// Heuristic: candidates are filtered by the cut-off, sorted by penalty, and
// truncated to `nm`; combinations of up to `m` mates are enumerated
// depth-first with branch-and-bound pruning on the penalty lower bound.
//
// Cost model: a select first asks the MateRegistry's weight histogram
// whether any W - f target (f up to the free-node allowance) is a sum of at
// most `m` listed mates' node counts; when none is, it returns without
// scanning a candidate (SelectStats::weight_rejections), which is most
// selects on a machine of uniform-width mates. Otherwise candidate
// collection walks only the registry's mates(), which leaves out mates
// hosting a guest, so a listed mate's budgets are a closed form of its
// static split and examining it reads no node. Free-node picks go through
// the ClusterStateIndex's class-partitioned bitmap. Loop invariants of the
// DFS (the guest's balanced split and the free-node prefix of a plan) are
// resolved once per select() / per free_used value, never per evaluated
// combination.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "cluster/machine.h"
#include "core/sd_config.h"
#include "job/job_registry.h"
#include "sched/scheduler.h"

namespace sdsched {

class ClusterStateIndex;
class MateRegistry;

class MateSelector {
 public:
  /// `registry` supplies the candidate mates; it must hear every start and
  /// finish of `jobs`.
  MateSelector(const Machine& machine, const JobRegistry& jobs, const SdConfig& config,
               const MateRegistry& registry) noexcept
      : machine_(machine), jobs_(jobs), config_(config), registry_(registry) {}

  /// The cluster view free-node picks read. select() throws
  /// std::logic_error until one is attached.
  void set_cluster_index(const ClusterStateIndex* index) noexcept { index_ = index; }

  /// Best mate plan for `guest` at `now` under cut-off `max_slowdown`
  /// (Eq. 2's P), or nullopt when no feasible combination exists.
  /// `max_free_nodes` bounds how many entirely free nodes a plan may use
  /// (0 unless the include_free_nodes option is active; the caller derives
  /// it from the reservation profile so guests never displace reservations).
  /// `guest_runtime` overrides the guest's planning duration (the runtime
  /// predictor's estimate); <= 0 uses the user request. Throws
  /// std::logic_error when no cluster index is attached.
  [[nodiscard]] std::optional<MatePlan> select(const Job& guest, SimTime now,
                                               double max_slowdown, int max_free_nodes = 0,
                                               SimTime guest_runtime = 0) const;

  /// Work counters (observability; exact on any hardware).
  struct SelectStats {
    std::uint64_t selects = 0;                 ///< select() calls
    std::uint64_t candidates_scanned = 0;      ///< mates() entries walked
    std::uint64_t combinations_evaluated = 0;  ///< DFS leaf evaluations
    std::uint64_t plans_found = 0;             ///< selects that produced a plan
    std::uint64_t weight_rejections = 0;       ///< selects no listed weights could satisfy
  };
  [[nodiscard]] const SelectStats& stats() const noexcept { return stats_; }

  /// Shape of the last select()'s candidate walk — what the failed-select
  /// ledger (GuestScanLedger) needs to bound how long a failure provably
  /// stands. An untruncated scan's failure holds until the mutation
  /// serial moves; a truncated one only until the earliest kept predicted end,
  /// because a kept top-nm candidate expiring can pull a previously
  /// truncated candidate into the explored window.
  struct ScanSummary {
    bool truncated = false;
    SimTime kept_min_end = std::numeric_limits<SimTime>::max();
  };
  [[nodiscard]] const ScanSummary& last_scan() const noexcept { return last_scan_; }

 private:
  /// The mate checks that depend on the guest or on `now` (see mates()).
  [[nodiscard]] bool eligible_mate(const Job& candidate, const Job& guest,
                                   SimTime now) const noexcept;

  /// A listed mate's budget on a node where it holds `static_cpus`, keeps
  /// at least `mate_min` and gives up at most `take_cap` cpus. A listed mate
  /// is alone on its nodes at its static split (docs/determinism.md
  /// "Listed-mate budgets"), so the split alone determines the budget.
  struct Budget {
    int mate_static = 0;  ///< mate's static split there (and its current cpus)
    int idle = 0;         ///< free cores on the node
    int guest_max = 0;    ///< most the guest could get on this node
  };
  [[nodiscard]] Budget budget(int static_cpus, int mate_min, int take_cap) const noexcept;
  struct Candidate {
    JobId id = kInvalidJob;
    int weight = 0;            ///< node count (Eq. 3's w_i)
    double sort_penalty = 0.0; ///< Eq. 4 with the quick duration estimate
    int mate_min = 1;          ///< rank floor
    int take_cap = 0;          ///< floor(SharingFactor x cores per node)
  };
  /// The free-node part of a plan — constant for a given free_used value,
  /// resolved once before the DFS instead of once per combination.
  struct FreePrefix {
    std::vector<SharePlan> nodes;
    double guest_rate = 1e300;  ///< min over free nodes of granted/needed
  };

  /// The candidate scan and DFS behind select(), for a free-node allowance
  /// already capped to `max_free`.
  [[nodiscard]] std::optional<MatePlan> search(const Job& guest, SimTime now,
                                               double max_slowdown, int max_free,
                                               SimTime guest_runtime) const;
  /// Crosscheck of a weight rejection: runs search() uncounted and throws
  /// std::logic_error naming the guest and `now` if it finds a plan.
  void verify_weight_rejection(const Job& guest, SimTime now, double max_slowdown,
                               int max_free, SimTime guest_runtime) const;
  [[nodiscard]] std::vector<Candidate> collect_candidates(const Job& guest, SimTime now,
                                                          double max_slowdown,
                                                          SimTime guest_runtime) const;
  /// Examine one candidate: append it to `out` when it passes eligibility,
  /// budget feasibility, the guest's constraints and the Eq. 2 cut-off.
  /// Under crosscheck() throws std::logic_error naming the job and the
  /// first node where the listed mate is off its static split.
  void examine_candidate(const Job& job, const Job& guest, SimTime now,
                         double max_slowdown, SimTime quick_d0, int u_max,
                         std::vector<Candidate>& out) const;
  [[nodiscard]] bool resolve_free_prefix(const Job& guest, int free_used,
                                         const std::vector<int>& needs,
                                         FreePrefix& out) const;
  [[nodiscard]] std::optional<MatePlan> evaluate_combination(
      const Job& guest, SimTime now, double max_slowdown,
      const std::vector<const Candidate*>& combo, const std::vector<int>& needs,
      const FreePrefix& free_prefix, SimTime guest_runtime) const;

  const Machine& machine_;
  const JobRegistry& jobs_;
  const SdConfig& config_;
  const MateRegistry& registry_;
  const ClusterStateIndex* index_ = nullptr;
  mutable SelectStats stats_;
  mutable ScanSummary last_scan_;
};

}  // namespace sdsched

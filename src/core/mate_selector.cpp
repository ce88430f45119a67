#include "core/mate_selector.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "cluster/cluster_state_index.h"
#include "core/adaptive_sharing.h"
#include "core/cutoff.h"
#include "core/mate_registry.h"
#include "model/runtime_model.h"
#include "workload/app_profiles.h"

namespace sdsched {

namespace {

/// Table-2 profile of a job, or null when it carries none.
const ApplicationProfile* profile_of(const Job& job) noexcept {
  const int idx = job.spec.app_profile;
  const auto& profiles = table2_profiles();
  if (idx < 0 || idx >= static_cast<int>(profiles.size())) return nullptr;
  return &profiles[static_cast<std::size_t>(idx)];
}

double penalty_for(const Job& mate, SimTime now, SimTime increase) noexcept {
  const auto req = static_cast<double>(std::max<SimTime>(mate.spec.req_time, 1));
  return (static_cast<double>(mate.wait_time(now)) + static_cast<double>(increase) + req) /
         req;
}

}  // namespace

bool MateSelector::eligible_mate(const Job& candidate, const Job& guest,
                                 SimTime now) const noexcept {
  // Running, malleable, not a guest and hosting none are mates() invariants.
  if (candidate.spec.req_nodes > guest.spec.req_nodes) return false;  // w_i <= W
  return candidate.predicted_end > now;  // remaining allocation
}

MateSelector::Budget MateSelector::budget(int static_cpus, int mate_min,
                                          int take_cap) const noexcept {
  Budget b;
  b.mate_static = std::max(1, static_cpus);
  b.idle = machine_.cores_per_node() - b.mate_static;
  b.guest_max = b.idle + std::clamp(std::min(take_cap, b.mate_static - mate_min), 0,
                                    b.mate_static);
  return b;
}

void MateSelector::examine_candidate(const Job& job, const Job& guest, SimTime now,
                                     double max_slowdown, SimTime quick_d0, int u_max,
                                     std::vector<Candidate>& out) const {
  // balanced_split gives every node req_cpus / n cpus, the first req_cpus % n
  // one more. The budgets below read no node; the crosscheck proves what they
  // rest on (docs/determinism.md "Listed-mate budgets") for every scanned mate.
  const int n = static_cast<int>(job.shares.size());
  const int base = job.spec.req_cpus / n;
  if (index_->crosscheck()) {
    for (const NodeShare& share : job.shares) {
      const Node& node = machine_.node(share.node);
      if (share.cpus != share.static_cpus ||
          node.free_cores() != node.total_cores() - share.cpus ||
          (share.static_cpus != std::max(1, base) && share.static_cpus != base + 1)) {
        throw std::logic_error("MateSelector listed mate is off its static split: job " +
                               std::to_string(job.spec.id) + " node " +
                               std::to_string(share.node));
      }
    }
  }
  if (!eligible_mate(job, guest, now)) return;

  // §3.2.4: the guest's constraints filter the mates' nodes too.
  if (!guest.spec.constraints.unconstrained()) {
    for (const NodeShare& share : job.shares) {
      if (!node_satisfies(machine_.node(share.node).attributes(), guest.spec.constraints)) {
        return;
      }
    }
  }

  // Future work #1: SharingFactor tuned per (mate, guest) pairing when
  // application profiles are known; the fixed socket split otherwise.
  const double sharing_factor =
      config_.adaptive_sharing
          ? adaptive_sharing_factor(config_.sharing_factor, profile_of(job),
                                    profile_of(guest))
          : config_.sharing_factor;
  const int mate_min = std::max(1, job.spec.ranks_per_node);
  const int take_cap =
      static_cast<int>(std::floor(sharing_factor * machine_.cores_per_node()));

  // Every share must host a guest cpu, and the quick penalty takes the worst
  // kept/static ratio at u_max guest cpus per node: one budget per split value.
  double worst_kept_ratio = 1.0;
  for (int split = base; split <= base + (job.spec.req_cpus % n != 0 ? 1 : 0); ++split) {
    const Budget b = budget(split, mate_min, take_cap);
    if (b.guest_max < 1) return;
    const int g = std::min(u_max, b.guest_max);
    const int kept = b.mate_static - std::max(0, g - b.idle);
    worst_kept_ratio =
        std::min(worst_kept_ratio, static_cast<double>(kept) / b.mate_static);
  }

  const SimTime quick_increase = lost_progress_increase(quick_d0, worst_kept_ratio);
  const double sort_penalty = penalty_for(job, now, quick_increase);
  if (sort_penalty >= max_slowdown) return;  // Eq. 2 filter
  out.push_back(Candidate{job.spec.id, n, sort_penalty, mate_min, take_cap});
}

std::vector<MateSelector::Candidate> MateSelector::collect_candidates(
    const Job& guest, SimTime now, double max_slowdown, SimTime guest_runtime) const {
  const SimTime d0 = quick_duration(guest_runtime, config_.sharing_factor);
  const auto u_max = static_cast<int>(
      (guest.spec.req_cpus + guest.spec.req_nodes - 1) / guest.spec.req_nodes);

  // Only the mates that can still take a guest, in ascending id order.
  std::vector<Candidate> candidates;
  candidates.reserve(registry_.mates().size());
  for (const JobId id : registry_.mates()) {
    ++stats_.candidates_scanned;
    examine_candidate(jobs_.at(id), guest, now, max_slowdown, d0, u_max, candidates);
  }

  std::sort(candidates.begin(), candidates.end(), [](const Candidate& a, const Candidate& b) {
    if (a.sort_penalty != b.sort_penalty) return a.sort_penalty < b.sort_penalty;
    return a.id < b.id;
  });
  last_scan_ = ScanSummary{};
  if (config_.max_candidates > 0 &&
      static_cast<int>(candidates.size()) > config_.max_candidates) {
    candidates.resize(static_cast<std::size_t>(config_.max_candidates));
    // The truncated tail was never examined, so a failure proof from this
    // scan lapses as soon as any *kept* candidate can have expired out of
    // the window (eligible_mate's predicted_end <= now filter).
    last_scan_.truncated = true;
    for (const Candidate& cand : candidates) {
      last_scan_.kept_min_end =
          std::min(last_scan_.kept_min_end, jobs_.at(cand.id).predicted_end);
    }
  }
  return candidates;
}

bool MateSelector::resolve_free_prefix(const Job& guest, int free_used,
                                       const std::vector<int>& needs,
                                       FreePrefix& out) const {
  const auto free_ids = index_->find_free_nodes(free_used, &guest.spec.constraints);
  if (!free_ids) return false;
  out.nodes.clear();
  out.nodes.reserve(static_cast<std::size_t>(free_used));
  out.guest_rate = 1e300;
  std::size_t need_idx = 0;
  for (const int node_id : *free_ids) {
    const int u = needs[need_idx++];
    const int cap = machine_.node(node_id).total_cores();
    const int g = std::min(u, cap);
    if (g < 1) return false;
    out.nodes.push_back(SharePlan{node_id, kInvalidJob, g, 0, u});
    out.guest_rate = std::min(out.guest_rate, static_cast<double>(g) / u);
  }
  return true;
}

std::optional<MatePlan> MateSelector::evaluate_combination(
    const Job& guest, SimTime now, double max_slowdown,
    const std::vector<const Candidate*>& combo, const std::vector<int>& needs,
    const FreePrefix& free_prefix, SimTime guest_runtime) const {
  ++stats_.combinations_evaluated;
  MatePlan plan;
  plan.nodes = free_prefix.nodes;
  plan.nodes.reserve(needs.size());
  std::size_t need_idx = free_prefix.nodes.size();
  double guest_rate = free_prefix.guest_rate;

  struct MateKept {
    const Candidate* cand;
    double rate;  ///< min over nodes kept/static
  };
  std::vector<MateKept> kept_rates;
  kept_rates.reserve(combo.size());
  for (const Candidate* cand : combo) {
    double mate_rate = 1.0;
    for (const NodeShare& share : jobs_.at(cand->id).shares) {
      const Budget b = budget(share.static_cpus, cand->mate_min, cand->take_cap);
      const int u = needs[need_idx++];
      const int g = std::min(u, b.guest_max);
      if (g < 1) return std::nullopt;
      const int kept = b.mate_static - std::max(0, g - b.idle);
      assert(kept >= cand->mate_min);
      plan.nodes.push_back(SharePlan{share.node, cand->id, g, kept, u});
      guest_rate = std::min(guest_rate, static_cast<double>(g) / u);
      mate_rate = std::min(mate_rate, static_cast<double>(kept) / b.mate_static);
    }
    kept_rates.push_back(MateKept{cand, mate_rate});
  }
  assert(need_idx == needs.size());

  if (guest_rate <= 0.0) return std::nullopt;

  // Contiguous allocations (§3.2.4): the combined plan must form one run of
  // consecutive node ids.
  if (guest.spec.constraints.contiguous) {
    std::vector<int> ids;
    ids.reserve(plan.nodes.size());
    for (const auto& entry : plan.nodes) ids.push_back(entry.node);
    std::sort(ids.begin(), ids.end());
    for (std::size_t i = 1; i < ids.size(); ++i) {
      if (ids[i] != ids[i - 1] + 1) return std::nullopt;
    }
  }

  plan.guest_increase = increase_for_rate(guest_runtime, guest_rate);
  plan.guest_duration = guest_runtime + plan.guest_increase;
  const SimTime mall_end = now + plan.guest_duration;

  // §3.2.4: the guest must finish inside every mate's allocation.
  for (const MateKept& mk : kept_rates) {
    if (mall_end > jobs_.at(mk.cand->id).predicted_end) return std::nullopt;
  }

  // Exact penalties for this combination (Eq. 4 with the plan's duration).
  plan.performance_impact = 0.0;
  for (const MateKept& mk : kept_rates) {
    const Job& mate = jobs_.at(mk.cand->id);
    const SimTime increase = lost_progress_increase(plan.guest_duration, mk.rate);
    const double penalty = penalty_for(mate, now, increase);
    if (penalty >= max_slowdown) return std::nullopt;  // Eq. 2 on exact values
    plan.mates.push_back(mk.cand->id);
    plan.mate_increases.push_back(increase);
    plan.performance_impact += penalty;
  }
  return plan;
}

std::optional<MatePlan> MateSelector::select(const Job& guest, SimTime now,
                                             double max_slowdown, int max_free_nodes,
                                             SimTime guest_runtime) const {
  if (index_ == nullptr) {
    throw std::logic_error("MateSelector::select needs a cluster index (set_cluster_index)");
  }
  ++stats_.selects;
  last_scan_ = ScanSummary{};  // a degenerate guest never scans: proof holds forever
  const int total_nodes = guest.spec.req_nodes;
  if (total_nodes <= 0) return std::nullopt;
  if (guest_runtime <= 0) guest_runtime = guest.spec.req_time;
  const int max_free =
      config_.include_free_nodes ? std::min(max_free_nodes, total_nodes - 1) : 0;

  // Eq. 3 is an equality on node counts and every candidate is a listed
  // mate: when no W - f target is a sum of at most `m` listed weights, the
  // DFS below can never reach a leaf (docs/determinism.md "Weight-rejection
  // safety"). The untruncated last_scan_ lets the ledger keep the failure
  // until the registry changes.
  bool reachable = false;
  for (int free_used = max_free; free_used >= 0 && !reachable; --free_used) {
    reachable = registry_.can_sum_to(total_nodes - free_used, config_.max_mates);
  }
  if (!reachable) {
    ++stats_.weight_rejections;
    if (index_->crosscheck()) {
      verify_weight_rejection(guest, now, max_slowdown, max_free, guest_runtime);
    }
    return std::nullopt;
  }

  auto best = search(guest, now, max_slowdown, max_free, guest_runtime);
  if (best) ++stats_.plans_found;
  return best;
}

void MateSelector::verify_weight_rejection(const Job& guest, SimTime now,
                                           double max_slowdown, int max_free,
                                           SimTime guest_runtime) const {
  // The re-run is not counted and leaves the rejection's scan summary.
  const SelectStats stats = stats_;
  const bool found = search(guest, now, max_slowdown, max_free, guest_runtime).has_value();
  stats_ = stats;
  last_scan_ = ScanSummary{};
  if (found) {
    throw std::logic_error(
        "MateSelector weight rejection diverged from the full mate search: job " +
        std::to_string(guest.spec.id) + " at t=" + std::to_string(now) + " has a plan");
  }
}

std::optional<MatePlan> MateSelector::search(const Job& guest, SimTime now,
                                             double max_slowdown, int max_free,
                                             SimTime guest_runtime) const {
  const int total_nodes = guest.spec.req_nodes;
  const auto candidates = collect_candidates(guest, now, max_slowdown, guest_runtime);
  if (candidates.empty()) return std::nullopt;  // plans always involve >=1 mate

  // Guest's balanced static need per node, largest chunks first so free
  // nodes (which can host the most) absorb them. Invariant across the whole
  // DFS — computed at most once per select, and lazily: most selects never
  // complete a combination, and for big guests the split and its sort are
  // machine-size-proportional.
  std::vector<int> needs;
  const auto ensure_needs = [&]() -> const std::vector<int>& {
    if (needs.empty()) {
      needs = balanced_split(guest.spec.req_cpus, total_nodes);
      std::sort(needs.begin(), needs.end(), std::greater<int>());
    }
    return needs;
  };

  std::optional<MatePlan> best;
  double best_impact = 1e300;

  // Candidate positions sorted by (weight, position). The last mate of a
  // combination must carry *exactly* the remaining weight (Eq. 3 is an
  // equality): walking only that weight's positions at the final DFS level
  // visits the exact same evaluations, in the same order, that the full
  // scan reached after skipping every mismatched candidate.
  std::vector<std::pair<int, std::size_t>> weight_index;
  weight_index.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    weight_index.emplace_back(candidates[i].weight, i);
  }
  std::sort(weight_index.begin(), weight_index.end());

  // Prefer plans that lean on free nodes (zero penalty); then fill the
  // remaining weight with mate combinations, best-penalty-first DFS with
  // branch-and-bound on the (sorted) penalty lower bound.
  FreePrefix prefix;
  for (int free_used = max_free; free_used >= 0; --free_used) {
    const int target = total_nodes - free_used;
    if (target == 0) continue;  // would be a static start, not SD's business

    // The free-node pick is the same for every combination at this
    // free_used (the machine does not change during a select): resolve it
    // once. An infeasible pick fails every combination, so skip the DFS.
    prefix.nodes.clear();
    prefix.guest_rate = 1e300;
    if (free_used > 0 && !resolve_free_prefix(guest, free_used, ensure_needs(), prefix)) {
      continue;
    }

    std::vector<const Candidate*> combo;
    const auto evaluate_leaf = [&](double /*bound*/) {
      auto plan = evaluate_combination(guest, now, max_slowdown, combo, ensure_needs(),
                                       prefix, guest_runtime);
      if (plan && plan->performance_impact < best_impact) {
        best_impact = plan->performance_impact;
        best = std::move(plan);
      }
    };
    const auto dfs = [&](auto&& self, std::size_t start, int remaining_weight,
                         int remaining_mates, double penalty_bound) -> void {
      if (remaining_weight == 0) {
        evaluate_leaf(penalty_bound);
        return;
      }
      if (remaining_mates == 0) return;
      if (remaining_mates == 1) {
        // Only an exact-weight candidate can complete the plan; smaller
        // weights dead-end at remaining_mates == 0 and larger ones are
        // skipped — walk just the matching positions. Penalties ascend
        // with position, so the branch-and-bound break is unchanged.
        for (auto it = std::lower_bound(weight_index.begin(), weight_index.end(),
                                        std::make_pair(remaining_weight, start));
             it != weight_index.end() && it->first == remaining_weight; ++it) {
          const Candidate& cand = candidates[it->second];
          const double bound = penalty_bound + cand.sort_penalty;
          if (bound >= best_impact) break;  // sorted: all later are >= this
          combo.push_back(&cand);
          evaluate_leaf(bound);
          combo.pop_back();
        }
        return;
      }
      for (std::size_t i = start; i < candidates.size(); ++i) {
        const Candidate& cand = candidates[i];
        if (cand.weight > remaining_weight) continue;
        const double bound = penalty_bound + cand.sort_penalty;
        if (bound >= best_impact) break;  // sorted: all later are >= this
        combo.push_back(&cand);
        self(self, i + 1, remaining_weight - cand.weight, remaining_mates - 1, bound);
        combo.pop_back();
      }
    };
    dfs(dfs, 0, target, config_.max_mates, 0.0);
  }
  return best;
}

}  // namespace sdsched

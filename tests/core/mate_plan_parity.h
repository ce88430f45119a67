// Reference answers for mate-selection parity tests: what a fresh
// selector over a freshly seed()ed registry finds, and an exact comparison
// of two plans.
#pragma once

#include <optional>

#include "cluster/cluster_state_index.h"
#include "core/mate_registry.h"
#include "core/mate_selector.h"
#include "drom/node_manager.h"

namespace sdsched::testing_support {

/// The reference answer: a fresh selector over a registry seed()ed from
/// the job table at query time.
inline std::optional<MatePlan> seeded_select(const Machine& machine, const JobRegistry& jobs,
                                             const ClusterStateIndex& index,
                                             const SdConfig& sd, const Job& guest,
                                             SimTime now, double cutoff) {
  MateRegistry seeded;
  seeded.seed(jobs);
  MateSelector selector(machine, jobs, sd, seeded);
  selector.set_cluster_index(&index);
  return selector.select(guest, now, cutoff);
}

inline bool plans_equal(const std::optional<MatePlan>& a, const std::optional<MatePlan>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  if (a->mates != b->mates || a->mate_increases != b->mate_increases) return false;
  if (a->guest_increase != b->guest_increase || a->guest_duration != b->guest_duration) {
    return false;
  }
  if (a->performance_impact != b->performance_impact) return false;
  if (a->nodes.size() != b->nodes.size()) return false;
  for (std::size_t i = 0; i < a->nodes.size(); ++i) {
    const SharePlan& x = a->nodes[i];
    const SharePlan& y = b->nodes[i];
    if (x.node != y.node || x.mate != y.mate || x.guest_cpus != y.guest_cpus ||
        x.mate_kept_cpus != y.mate_kept_cpus ||
        x.guest_static_cpus != y.guest_static_cpus) {
      return false;
    }
  }
  return true;
}

}  // namespace sdsched::testing_support

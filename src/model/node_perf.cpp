#include "model/node_perf.h"

#include <algorithm>
#include <cmath>

namespace sdsched {

const ApplicationProfile* NodePerfModel::profile_of(const Job& job) const noexcept {
  const int idx = job.spec.app_profile;
  if (idx < 0 || idx >= static_cast<int>(profiles_.size())) return nullptr;
  return &profiles_[static_cast<std::size_t>(idx)];
}

double NodePerfModel::multiplier(const Job& job, const Machine& machine,
                                 const JobRegistry& jobs) const {
  const ApplicationProfile* profile = profile_of(job);
  if (profile == nullptr || job.shares.empty()) return 1.0;

  // (1) scalability correction: Eq. 5/6 charge a linear f; the app actually
  // progresses at f^alpha, so correct by f^(alpha-1).
  const double frac = static_cast<double>(job.allocated_cpus()) /
                      static_cast<double>(std::max(1, job.spec.req_cpus));
  double result = 1.0;
  if (frac > 0.0) {
    result *= std::pow(frac, profile->scalability_alpha - 1.0);
  }

  // (2) bandwidth contention, averaged over the job's nodes.
  double contention_sum = 0.0;
  for (const auto& share : job.shares) {
    const Node& node = machine.node(share.node);
    const double capacity = static_cast<double>(node.sockets());
    double own_demand = 0.0;
    double total_demand = 0.0;
    for (const auto& occ : node.occupants()) {
      const Job& occupant = jobs.at(occ.job);
      const ApplicationProfile* p = profile_of(occupant);
      const double per_core = (p != nullptr) ? p->mem_bw_per_core : 0.0;
      const double demand = per_core * occ.cpus;
      total_demand += demand;
      if (occ.job == job.spec.id) own_demand = demand;
    }
    // Excess pressure beyond what the job would see running alone (its own
    // saturation is part of base_runtime already).
    const double baseline = std::max(capacity, own_demand);
    const double excess = std::max(0.0, total_demand - baseline) / capacity;
    contention_sum += 1.0 / (1.0 + profile->mem_utilization * excess);
  }
  result *= contention_sum / static_cast<double>(job.shares.size());
  return result;
}

}  // namespace sdsched

#include "job/job.h"

#include <algorithm>

namespace sdsched {

int Job::allocated_cpus() const noexcept {
  int total = 0;
  for (const auto& share : shares) total += share.cpus;
  return total;
}

double Job::slowdown() const noexcept {
  const auto runtime = std::max<SimTime>(spec.base_runtime, 1);
  return static_cast<double>(response_time()) / static_cast<double>(runtime);
}

int nodes_for(int req_cpus, int cores_per_node) noexcept {
  if (req_cpus <= 0) return 1;
  return (req_cpus + cores_per_node - 1) / cores_per_node;
}

std::vector<int> balanced_split(int req_cpus, int nodes) {
  std::vector<int> split(static_cast<std::size_t>(std::max(1, nodes)), 0);
  if (nodes <= 0) return split;
  const int base = req_cpus / nodes;
  const int extra = req_cpus % nodes;
  for (int i = 0; i < nodes; ++i) {
    split[i] = base + (i < extra ? 1 : 0);
  }
  return split;
}

}  // namespace sdsched

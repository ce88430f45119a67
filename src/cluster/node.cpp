#include "cluster/node.h"

#include <algorithm>

namespace sdsched {

int Node::used_cores() const noexcept {
  int used = 0;
  for (const auto& occ : occupants_) used += occ.cpus;
  return used;
}

bool Node::holds(JobId job) const noexcept {
  return std::any_of(occupants_.begin(), occupants_.end(),
                     [job](const NodeOccupant& o) { return o.job == job; });
}

std::optional<NodeOccupant> Node::occupant(JobId job) const noexcept {
  for (const auto& occ : occupants_) {
    if (occ.job == job) return occ;
  }
  return std::nullopt;
}

bool Node::add(JobId job, int cpus) {
  if (cpus < 1 || cpus > free_cores() || holds(job)) return false;
  occupants_.push_back(NodeOccupant{job, cpus});
  return true;
}

int Node::remove(JobId job) {
  const auto it = std::find_if(occupants_.begin(), occupants_.end(),
                               [job](const NodeOccupant& o) { return o.job == job; });
  if (it == occupants_.end()) return 0;
  const int cpus = it->cpus;
  occupants_.erase(it);
  return cpus;
}

bool Node::resize(JobId job, int cpus) {
  if (cpus < 1) return false;
  const auto it = std::find_if(occupants_.begin(), occupants_.end(),
                               [job](const NodeOccupant& o) { return o.job == job; });
  if (it == occupants_.end()) return false;
  const int others = used_cores() - it->cpus;
  if (others + cpus > total_cores()) return false;
  it->cpus = cpus;
  return true;
}

}  // namespace sdsched

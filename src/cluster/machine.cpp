#include "cluster/machine.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace sdsched {

bool node_satisfies(const NodeAttributes& attributes,
                    const JobConstraints& constraints) noexcept {
  if (!constraints.required_arch.empty() && attributes.arch != constraints.required_arch) {
    return false;
  }
  if (attributes.memory_gb < constraints.min_memory_gb) return false;
  if (!constraints.required_network.empty() &&
      attributes.network != constraints.required_network) {
    return false;
  }
  return true;
}

Machine::Machine(MachineConfig config)
    : config_(std::move(config)), energy_(config_.energy, config_.nodes) {
  const auto require_positive = [](const char* field, int value) {
    if (value < 1) {
      throw std::invalid_argument(std::string("Machine: ") + field + " must be at least 1, got " +
                                  std::to_string(value));
    }
  };
  require_positive("nodes", config_.nodes);
  require_positive("sockets", config_.node.sockets);
  require_positive("cores_per_socket", config_.node.cores_per_socket);
  // One lookup map instead of re-scanning the override list per node
  // (O(nodes + overrides), not O(nodes x overrides) — at 5040 nodes a long
  // override list made construction quadratic). insert_or_assign keeps the
  // historical last-entry-wins semantics for duplicate node ids.
  // Determinism audit (detlint D1): this unordered_map is lookup-only —
  // `find` below, never iterated — so its order can't leak into node
  // attribute assignment; the loop itself runs in ascending node id.
  std::unordered_map<int, const NodeAttributes*> overrides;
  overrides.reserve(config_.attribute_overrides.size());
  for (const auto& [id, override_attrs] : config_.attribute_overrides) {
    if (id < 0 || id >= config_.nodes) {
      throw std::invalid_argument("Machine: attribute_overrides names node " +
                                  std::to_string(id) + ", outside the " +
                                  std::to_string(config_.nodes) + "-node machine");
    }
    overrides.insert_or_assign(id, &override_attrs);
  }
  nodes_.reserve(config_.nodes);
  for (int i = 0; i < config_.nodes; ++i) {
    const auto it = overrides.find(i);
    nodes_.emplace_back(i, config_.node,
                        it != overrides.end() ? *it->second : config_.attributes);
  }
}

std::optional<std::vector<int>> Machine::find_free_nodes(
    int count, const JobConstraints* constraints) const {
  if (count > free_node_count()) return std::nullopt;
  const bool unconstrained = constraints == nullptr || constraints->unconstrained();
  std::vector<int> eligible;
  for (const Node& node : nodes_) {
    if (!node.empty()) continue;
    if (!unconstrained && !node_satisfies(node.attributes(), *constraints)) continue;
    eligible.push_back(node.id());
    if (unconstrained && static_cast<int>(eligible.size()) == count) return eligible;
  }
  if (unconstrained) return eligible;
  if (static_cast<int>(eligible.size()) < count) return std::nullopt;
  if (!constraints->contiguous) {
    eligible.resize(count);
    return eligible;
  }
  // Contiguous: the earliest run of `count` consecutive ids.
  int run_start = 0;
  for (std::size_t i = 1; i <= eligible.size(); ++i) {
    if (i == eligible.size() || eligible[i] != eligible[i - 1] + 1) {
      if (static_cast<int>(i) - run_start >= count) {
        return std::vector<int>(eligible.begin() + run_start,
                                eligible.begin() + run_start + count);
      }
      run_start = static_cast<int>(i);
    }
  }
  return std::nullopt;
}

int Machine::eligible_node_count(const JobConstraints& constraints) const {
  if (constraints.unconstrained()) return node_count();
  int eligible = 0;
  for (const auto& node : nodes_) {
    if (node_satisfies(node.attributes(), constraints)) ++eligible;
  }
  return eligible;
}

SimTime Machine::touch(SimTime now) {
  if (now < last_touch_) return last_touch_ - now;
  core_seconds_ += static_cast<double>(busy_cores_) * static_cast<double>(now - last_touch_);
  energy_.observe(now, busy_cores_, occupied_nodes());
  last_touch_ = now;
  return 0;
}

void Machine::commit(SimTime span, int cpu_delta, int node_delta) {
  if (span > 0) {
    core_seconds_ += static_cast<double>(cpu_delta) * static_cast<double>(span);
    energy_.credit(static_cast<double>(cpu_delta) * static_cast<double>(span),
                   static_cast<double>(node_delta) * static_cast<double>(span));
  }
  energy_.observe(last_touch_, busy_cores_, occupied_nodes());
}

bool Machine::allocate_exclusive(SimTime now, JobId job, const std::vector<int>& node_ids,
                                 const std::vector<int>& cpus) {
  assert(node_ids.size() == cpus.size());
  for (const int id : node_ids) {
    if (!nodes_.at(id).empty()) return false;
  }
  const SimTime backdated = touch(now);
  int added_cores = 0;
  for (std::size_t i = 0; i < node_ids.size(); ++i) {
    const int id = node_ids[i];
    const int held = std::clamp(cpus[i], 1, nodes_[id].total_cores());
    const bool ok = nodes_[id].add(job, held);
    assert(ok);
    (void)ok;
    busy_cores_ += held;
    ++occupied_nodes_;
    added_cores += held;
    notify(id);
  }
  commit(backdated, added_cores, static_cast<int>(node_ids.size()));
  return true;
}

bool Machine::add_share(SimTime now, JobId job, int node_id, int cpus) {
  const SimTime backdated = touch(now);
  const bool was_empty = nodes_.at(node_id).empty();
  if (!nodes_[node_id].add(job, cpus)) return false;
  busy_cores_ += cpus;
  if (was_empty) ++occupied_nodes_;
  notify(node_id);
  commit(backdated, cpus, was_empty ? 1 : 0);
  return true;
}

bool Machine::resize_share(SimTime now, JobId job, int node_id, int cpus) {
  auto& node = nodes_.at(node_id);
  const auto occ = node.occupant(job);
  if (!occ) return false;
  const SimTime backdated = touch(now);
  if (!node.resize(job, cpus)) return false;
  busy_cores_ += cpus - occ->cpus;
  notify(node_id);
  commit(backdated, cpus - occ->cpus, 0);
  return true;
}

int Machine::remove_share(SimTime now, JobId job, int node_id) {
  const SimTime backdated = touch(now);
  const int freed = nodes_.at(node_id).remove(job);
  busy_cores_ -= freed;
  const bool emptied = freed > 0 && nodes_[node_id].empty();
  if (emptied) --occupied_nodes_;
  if (freed > 0) notify(node_id);
  commit(backdated, -freed, emptied ? -1 : 0);
  return freed;
}

void Machine::finalize_energy(SimTime now) { (void)touch(now); }

}  // namespace sdsched

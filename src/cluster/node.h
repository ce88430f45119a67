// A compute node: sockets x cores, occupied by one job and optionally
// co-scheduled guests (SD-Policy node sharing).
//
// Nodes are mechanism-only: they track who holds how many cores and enforce
// capacity; *policy* (how cores are split, who expands when someone leaves)
// lives in drom/NodeManager.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sim/event.h"

namespace sdsched {

struct NodeConfig {
  int sockets = 2;
  int cores_per_socket = 24;  ///< MN4: 2 x 24 = 48 cores
};

/// Static node properties used for constraint filtering (paper §3.2.4:
/// "node filtering by name, architecture, memory and network constraints").
struct NodeAttributes {
  std::string arch = "x86_64";
  int memory_gb = 96;          ///< MN4 standard nodes
  std::string network = "opa"; ///< interconnect class (e.g. Omni-Path)

  /// Attribute-class identity (the ClusterStateIndex partitions nodes by it).
  friend bool operator==(const NodeAttributes&, const NodeAttributes&) = default;
};

/// One job's holding on this node.
struct NodeOccupant {
  JobId job = kInvalidJob;
  int cpus = 0;
};

class Node {
 public:
  Node(int id, NodeConfig config, NodeAttributes attributes = {}) noexcept
      : id_(id), config_(config), attributes_(std::move(attributes)) {}

  [[nodiscard]] int id() const noexcept { return id_; }
  [[nodiscard]] const NodeAttributes& attributes() const noexcept { return attributes_; }
  [[nodiscard]] int total_cores() const noexcept {
    return config_.sockets * config_.cores_per_socket;
  }
  [[nodiscard]] int sockets() const noexcept { return config_.sockets; }
  [[nodiscard]] int cores_per_socket() const noexcept { return config_.cores_per_socket; }

  [[nodiscard]] int used_cores() const noexcept;
  [[nodiscard]] int free_cores() const noexcept { return total_cores() - used_cores(); }
  [[nodiscard]] bool empty() const noexcept { return occupants_.empty(); }
  [[nodiscard]] std::size_t occupant_count() const noexcept { return occupants_.size(); }
  [[nodiscard]] const std::vector<NodeOccupant>& occupants() const noexcept {
    return occupants_;
  }

  [[nodiscard]] bool holds(JobId job) const noexcept;
  [[nodiscard]] std::optional<NodeOccupant> occupant(JobId job) const noexcept;

  /// Add a job holding `cpus` cores. Fails (returns false) on overcommit or
  /// if the job is already present.
  bool add(JobId job, int cpus);

  /// Remove a job entirely. Returns the cpus it held, or 0 if absent.
  int remove(JobId job);

  /// Resize a job's holding. Fails on overcommit / absent job / cpus < 1.
  bool resize(JobId job, int cpus);

 private:
  int id_;
  NodeConfig config_;
  NodeAttributes attributes_;
  std::vector<NodeOccupant> occupants_;
};

}  // namespace sdsched

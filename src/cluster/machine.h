// The cluster: a homogeneous set of nodes (SLURM select/linear semantics:
// whole-node allocation, lowest-id-first for determinism) plus load
// accounting feeding the energy model.
//
// Node-id layout contract: node ids are dense, 0 .. node_count()-1, and
// never change after construction. The bitmap FreeNodeIndex relies on this
// mapping — node id n occupies word n/64, bit n%64 of each attribute
// class's word vector. Machines whose node count is not a multiple of 64
// simply leave the tail bits of the last word permanently zero (ids >= the
// node count never exist, so no masking is needed anywhere); see
// cluster/free_node_index.h for the full layout.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "cluster/energy.h"
#include "cluster/node.h"
#include "job/job.h"
#include "util/time_utils.h"

namespace sdsched {

struct MachineConfig {
  int nodes = 16;
  NodeConfig node;
  NodeAttributes attributes;  ///< default attributes for every node
  /// Per-node attribute overrides (node id -> attributes), for modelling
  /// heterogeneous partitions (high-mem nodes, different interconnects...).
  std::vector<std::pair<int, NodeAttributes>> attribute_overrides;
  EnergyConfig energy;
};

/// Does a node with `attributes` satisfy `constraints`? (§3.2.4 filtering.)
[[nodiscard]] bool node_satisfies(const NodeAttributes& attributes,
                                  const JobConstraints& constraints) noexcept;

/// Occupancy-change notifications (one per mutated node, fired after the
/// mutation is applied). The ClusterStateIndex subscribes to keep scheduler
/// state incremental instead of rescanning the machine every pass.
class MachineObserver {
 public:
  virtual ~MachineObserver() = default;
  virtual void on_node_occupancy_changed(int node_id) = 0;
};

class Machine {
 public:
  explicit Machine(MachineConfig config);

  [[nodiscard]] int node_count() const noexcept { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] int cores_per_node() const noexcept { return nodes_.front().total_cores(); }
  [[nodiscard]] int total_cores() const noexcept { return node_count() * cores_per_node(); }
  [[nodiscard]] int free_node_count() const noexcept {
    return node_count() - occupied_nodes_;
  }
  [[nodiscard]] int busy_cores() const noexcept { return busy_cores_; }
  [[nodiscard]] int occupied_nodes() const noexcept { return occupied_nodes_; }
  [[nodiscard]] double utilization() const noexcept {
    return static_cast<double>(busy_cores_) / static_cast<double>(total_cores());
  }

  [[nodiscard]] const Node& node(int id) const { return nodes_.at(id); }
  [[nodiscard]] const MachineConfig& config() const noexcept { return config_; }

  /// Pick `count` free nodes (lowest ids). Empty optional if insufficient.
  /// With `constraints`, only nodes satisfying them are eligible, and
  /// `constraints->contiguous` requires consecutive node ids. An O(nodes)
  /// scan of the node table: the oracle ClusterStateIndex::find_free_nodes
  /// is checked against, not a scheduling path.
  [[nodiscard]] std::optional<std::vector<int>> find_free_nodes(
      int count, const JobConstraints* constraints = nullptr) const;

  /// Nodes (free or busy) satisfying `constraints` — the capacity the
  /// reservation profile should assume for a constrained job.
  [[nodiscard]] int eligible_node_count(const JobConstraints& constraints) const;

  /// Exclusive whole-node allocation: `job` occupies each listed node,
  /// holding cpus[i] cores there (its balanced static split; remaining cores
  /// idle, as SLURM task/affinity binds only requested cpus). Returns false
  /// (no change) if any node is non-empty. Static placement only ever
  /// targets empty nodes; co-scheduling goes through add_share explicitly.
  bool allocate_exclusive(SimTime now, JobId job, const std::vector<int>& node_ids,
                          const std::vector<int>& cpus);

  /// Place `job` on `node_id` holding `cpus` cores alongside existing
  /// occupants (co-scheduling). The node must have the headroom.
  bool add_share(SimTime now, JobId job, int node_id, int cpus);

  /// Change `job`'s holding on `node_id`.
  bool resize_share(SimTime now, JobId job, int node_id, int cpus);

  /// Remove `job` from `node_id`; returns cpus freed (0 if absent).
  int remove_share(SimTime now, JobId job, int node_id);

  /// Flush the energy integral up to `now` (call at simulation end).
  void finalize_energy(SimTime now);

  [[nodiscard]] const EnergyAccountant& energy() const noexcept { return energy_; }

  /// Total core-seconds allocated so far (for utilization reporting).
  [[nodiscard]] double core_seconds() const noexcept { return core_seconds_; }

  /// Install (or clear, with nullptr) the occupancy observer. At most one;
  /// the caller owns its lifetime and must detach before destruction.
  void set_observer(MachineObserver* observer) noexcept { observer_ = observer; }

 private:
  /// Advance accounting to `now`: integrate [last_touch_, now] with the load
  /// that was current and move the frontier. Callers may legitimately pass a
  /// `now` *behind* the frontier — reference-model tests and warm-start
  /// scenarios reconstruct a running population with historical, non-monotonic
  /// start times — in which case nothing is integrated and the backdated span
  /// `last_touch_ - now` is returned (0 on the normal forward path).
  [[nodiscard]] SimTime touch(SimTime now);

  /// Finish a mutation: record the post-change load with the energy model and,
  /// for a backdated mutation (`span` > 0), credit the `cpu_delta` cores /
  /// `node_delta` occupied nodes that were active over the already-integrated
  /// span, so totals match a chronological replay of the same calls.
  ///
  /// Core-second credits are additive and therefore order-independent, but
  /// node occupancy is a union: the `node_delta` passed by the share
  /// operations is derived from emptiness at call time, so backdated shared
  /// ops touching the *same node* must be applied in chronological order or
  /// the occupied-node-seconds credit (idle power under
  /// `power_down_idle_nodes`) under-counts. Backdated exclusive allocations
  /// have no such constraint — an out-of-order conflict fails loudly.
  void commit(SimTime span, int cpu_delta, int node_delta);

  void notify(int node_id) {
    if (observer_ != nullptr) observer_->on_node_occupancy_changed(node_id);
  }

  MachineObserver* observer_ = nullptr;
  MachineConfig config_;
  std::vector<Node> nodes_;
  int busy_cores_ = 0;
  int occupied_nodes_ = 0;  ///< non-empty nodes
  EnergyAccountant energy_;
  double core_seconds_ = 0.0;
  SimTime last_touch_ = 0;
};

}  // namespace sdsched

// Event-driven cluster state index.
//
// Scheduling passes used to rebuild their view of the cluster from scratch:
// scan every node, every occupant, every attribute. This index inverts
// that: the kernel notifies it on every occupancy change (static starts,
// guest placements, finishes, reconfigurations — via the Machine observer
// hook) and on every predicted-end move (mate stretching — via the
// Simulation kernel), and the index maintains incrementally:
//
//  * per-node `free_at` — the latest predicted end among the node's
//    occupants (the time backfill's reservation profile expects the node
//    back);
//  * per-attribute-class (free_at -> node count) release maps over occupied
//    nodes, from which a ReservationProfile base snapshot is assembled in
//    O(distinct release times) — the whole machine via busy_groups(), the
//    per-class profile layers for constrained jobs (§3.2.4) via
//    busy_groups_for_mask();
//  * a class-partitioned bitmap FreeNodeIndex over free node ids (64 nodes
//    per word plus a summary level, with per-class free counts), so
//    free/busy flips are O(1) bit maintenance and find_free_nodes — called
//    from the scheduling pass on every start and from SD-Policy's
//    mate-combination DFS — resolves with popcount/ctz word scans;
//  * a version counter, so schedulers can reuse their profile base across
//    passes when nothing changed.
//
// Node occupancy itself lives in the Machine's node table; these are the
// only derived records, and each node flip writes one release map entry and
// one bitmap bit. The index is the only view of cluster state a scheduling
// pass reads. check_consistent() cross-checks everything against the
// brute-force node scan the index replaced, down to every free-node bitmap
// bit and the summary invariant (see free_node_index.h). The
// SDSCHED_CROSSCHECK environment switch, read once per index
// (crosscheck()), turns on every brute-force re-derivation at runtime: each
// backfill pass runs check_consistent(), find_free_nodes() compares every
// pick against Machine::find_free_nodes, and SD-Policy re-proves its
// MateRegistry, scan-ledger skips, cut-off cache and listed-mate splits. Any
// divergence throws std::logic_error with the diagnosis.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/free_node_index.h"
#include "cluster/machine.h"
#include "job/job_registry.h"

namespace sdsched {

class ClusterStateIndex final : public MachineObserver {
 public:
  /// Attaches to `machine` as its observer and indexes its current state.
  /// `jobs` provides occupants' predicted ends.
  ClusterStateIndex(Machine& machine, const JobRegistry& jobs);
  ~ClusterStateIndex() override;

  ClusterStateIndex(const ClusterStateIndex&) = delete;
  ClusterStateIndex& operator=(const ClusterStateIndex&) = delete;

  // MachineObserver: an occupancy mutation touched `node_id`.
  void on_node_occupancy_changed(int node_id) override;

  /// `job`'s predicted end moved (mate stretching, Listing 1 update_stats):
  /// refresh every node the job holds.
  void on_predicted_end_changed(JobId job);

  /// Bumped whenever any indexed quantity actually changed. A no-op
  /// notification (e.g. a share resize that leaves the node's free_at and
  /// emptiness alone) does NOT bump it — profile-base reuse depends on
  /// that. State below the index's resolution (per-share core counts, free
  /// cores on a still-busy node) may change without a version bump: cache
  /// on mutation_serial() instead when that state matters.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// Bumped on EVERY occupancy/predicted-end notification, including ones
  /// that change nothing the index tracks. An unchanged mutation_serial
  /// guarantees the machine has not been touched at all — the key SD's
  /// failed-select ledger and cut-off cache are valid under.
  [[nodiscard]] std::uint64_t mutation_serial() const noexcept { return mutation_serial_; }

  /// Occupied-node release groups for a pass at `now`: ascending (free_at,
  /// nodes) with overdue occupants (free_at <= now) clamped to now + 1
  /// ("assume imminent completion"), ready for ReservationProfile::set_base.
  void busy_groups(SimTime now, std::vector<std::pair<SimTime, int>>& out) const;

  /// Nodes (free or busy) satisfying `constraints` — O(attribute classes).
  [[nodiscard]] int eligible_node_count(const JobConstraints& constraints) const;

  /// Drop-in indexed replacement for Machine::find_free_nodes: same node
  /// ids (lowest-first; earliest adequate run for contiguous requests),
  /// but resolved from the bitmap words — O(words/64 + words touched)
  /// worst case instead of O(nodes). `count` must be >= 1. Under
  /// crosscheck() every pick is compared against the machine scan.
  [[nodiscard]] std::optional<std::vector<int>> find_free_nodes(
      int count, const JobConstraints* constraints = nullptr) const;

  /// Bitmap words find_free_nodes() has read (FreeNodeIndex::words_read).
  [[nodiscard]] std::uint64_t free_words_read() const noexcept { return free_runs_.words_read(); }

  // --- attribute-class layer (constraint-class-aware profiles) ---

  [[nodiscard]] int class_count() const noexcept {
    return static_cast<int>(classes_.size());
  }

  /// Bit i set <=> attribute class i satisfies `constraints`. Only valid
  /// while class_count() <= 64 (callers fall back to the class-blind
  /// profile beyond that).
  [[nodiscard]] std::uint64_t eligible_class_mask(const JobConstraints& constraints) const;

  /// Total nodes (free or busy) across the classes in `mask`.
  [[nodiscard]] int node_count_for_mask(std::uint64_t mask) const;

  /// busy_groups() restricted to the classes in `mask` (same overdue
  /// clamping) — the base snapshot of a per-class profile layer.
  void busy_groups_for_mask(std::uint64_t mask, SimTime now,
                            std::vector<std::pair<SimTime, int>>& out) const;

  /// The SDSCHED_CROSSCHECK switch as read at construction: unset, empty
  /// or "0" is off. Every brute-force crosscheck reads it from here and
  /// throws std::logic_error with the diagnosis on divergence.
  [[nodiscard]] bool crosscheck() const noexcept { return crosscheck_; }

  /// Cross-check every indexed quantity against a full scan of the machine
  /// and registry. On mismatch returns false and, if given, fills
  /// `diagnosis` with the first divergence found.
  [[nodiscard]] bool check_consistent(std::string* diagnosis = nullptr) const;

 private:
  /// Recompute one node's free_at, its class release map entry and its
  /// bitmap bit; bumps the version only when something actually changed.
  void refresh_node(int node_id);

  /// busy_groups() over the listed classes: one class's release map is
  /// walked directly, several are merged first.
  void release_groups(const std::vector<int>& classes, SimTime now,
                      std::vector<std::pair<SimTime, int>>& out) const;

  [[nodiscard]] SimTime scan_free_at(int node_id) const;

  /// find_free_nodes without the crosscheck.
  [[nodiscard]] std::optional<std::vector<int>> pick_from_bitmap(
      int count, const JobConstraints* constraints) const;

  static constexpr SimTime kEmptyNode = INT64_MIN;

  struct AttrClass {
    NodeAttributes attributes;
    int total = 0;
    std::map<SimTime, int> busy;  ///< free_at -> occupied node count, this class
  };

  Machine& machine_;
  const JobRegistry& jobs_;

  std::vector<SimTime> node_free_at_;        ///< kEmptyNode for free nodes

  std::vector<AttrClass> classes_;
  std::vector<int> node_class_;              ///< node id -> index into classes_
  std::vector<int> all_classes_;             ///< 0..classes-1
  FreeNodeIndex free_runs_;

  std::uint64_t version_ = 0;
  std::uint64_t mutation_serial_ = 0;
  bool crosscheck_ = false;
};

}  // namespace sdsched

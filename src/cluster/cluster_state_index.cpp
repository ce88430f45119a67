#include "cluster/cluster_state_index.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace sdsched {

namespace {

bool crosscheck_env() {
  // Read once per index at construction; nothing sets the variable while
  // indexes are being built.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* value = std::getenv("SDSCHED_CROSSCHECK");
  return value != nullptr && *value != '\0' && std::string_view(value) != "0";
}

}  // namespace

ClusterStateIndex::ClusterStateIndex(Machine& machine, const JobRegistry& jobs)
    : machine_(machine), jobs_(jobs), crosscheck_(crosscheck_env()) {
  const int nodes = machine_.node_count();
  node_free_at_.assign(static_cast<std::size_t>(nodes), kEmptyNode);
  node_class_.resize(static_cast<std::size_t>(nodes));

  // Group nodes by attribute signature: attributes are static, so the
  // partition is built once and only the release maps and bitmap move
  // afterwards.
  for (int id = 0; id < nodes; ++id) {
    const NodeAttributes& attrs = machine_.node(id).attributes();
    int cls = -1;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      if (classes_[c].attributes == attrs) {
        cls = static_cast<int>(c);
        break;
      }
    }
    if (cls < 0) {
      cls = static_cast<int>(classes_.size());
      classes_.push_back(AttrClass{attrs, 0, {}});
    }
    node_class_[static_cast<std::size_t>(id)] = cls;
    ++classes_[static_cast<std::size_t>(cls)].total;
  }
  all_classes_.resize(classes_.size());
  for (std::size_t c = 0; c < classes_.size(); ++c) all_classes_[c] = static_cast<int>(c);
  free_runs_ = FreeNodeIndex(node_class_, static_cast<int>(classes_.size()));

  // Index whatever is already running (warm-start scenarios attach to a
  // populated machine).
  for (int id = 0; id < nodes; ++id) refresh_node(id);
  machine_.set_observer(this);
}

ClusterStateIndex::~ClusterStateIndex() { machine_.set_observer(nullptr); }

SimTime ClusterStateIndex::scan_free_at(int node_id) const {
  const Node& node = machine_.node(node_id);
  if (node.empty()) return kEmptyNode;
  SimTime free_at = INT64_MIN + 1;
  for (const auto& occ : node.occupants()) {
    free_at = std::max(free_at, jobs_.at(occ.job).predicted_end);
  }
  return free_at;
}

void ClusterStateIndex::refresh_node(int node_id) {
  const SimTime free_at = scan_free_at(node_id);
  SimTime& slot = node_free_at_[static_cast<std::size_t>(node_id)];
  if (free_at == slot) return;

  std::map<SimTime, int>& busy = classes_[static_cast<std::size_t>(
      node_class_[static_cast<std::size_t>(node_id)])].busy;
  if (slot != kEmptyNode) {
    const auto it = busy.find(slot);
    assert(it != busy.end() && "indexed free_at missing from class busy map");
    if (it != busy.end() && --it->second == 0) busy.erase(it);
  }
  if (free_at != kEmptyNode) ++busy[free_at];
  // The free-node bitmap cares only about emptiness flips, not about a
  // busy node's release time moving — each flip is O(1) word maintenance.
  const bool was_free = slot == kEmptyNode;
  const bool now_free = free_at == kEmptyNode;
  if (was_free != now_free) {
    if (now_free) {
      free_runs_.insert(node_id);
    } else {
      free_runs_.erase(node_id);
    }
  }
  slot = free_at;
  ++version_;
}

void ClusterStateIndex::on_node_occupancy_changed(int node_id) {
  ++mutation_serial_;
  refresh_node(node_id);
}

void ClusterStateIndex::on_predicted_end_changed(JobId job) {
  ++mutation_serial_;
  for (const NodeShare& share : jobs_.at(job).shares) {
    refresh_node(share.node);
  }
}

void ClusterStateIndex::busy_groups(SimTime now,
                                    std::vector<std::pair<SimTime, int>>& out) const {
  release_groups(all_classes_, now, out);
}

void ClusterStateIndex::release_groups(const std::vector<int>& classes, SimTime now,
                                       std::vector<std::pair<SimTime, int>>& out) const {
  // Overdue occupants (free_at <= now): assume imminent completion at now+1,
  // exactly as the full-scan profile build always did.
  const auto append = [now, &out](const std::map<SimTime, int>& busy) {
    out.clear();
    auto it = busy.begin();
    int overdue = 0;
    for (; it != busy.end() && it->first <= now + 1; ++it) overdue += it->second;
    if (overdue > 0) out.emplace_back(now + 1, overdue);
    for (; it != busy.end(); ++it) out.emplace_back(it->first, it->second);
  };
  if (classes.size() == 1) {
    append(classes_[static_cast<std::size_t>(classes.front())].busy);
    return;
  }
  // Machines with attribute overrides only: a transient merge map is fine.
  std::map<SimTime, int> merged;
  for (const int c : classes) {
    for (const auto& [free_at, nodes] : classes_[static_cast<std::size_t>(c)].busy) {
      merged[free_at] += nodes;
    }
  }
  append(merged);
}

int ClusterStateIndex::eligible_node_count(const JobConstraints& constraints) const {
  if (constraints.unconstrained()) return machine_.node_count();
  int eligible = 0;
  for (const AttrClass& cls : classes_) {
    if (node_satisfies(cls.attributes, constraints)) eligible += cls.total;
  }
  return eligible;
}

std::optional<std::vector<int>> ClusterStateIndex::find_free_nodes(
    int count, const JobConstraints* constraints) const {
  auto picked = pick_from_bitmap(count, constraints);
  if (crosscheck_ && picked != machine_.find_free_nodes(count, constraints)) {
    throw std::logic_error("ClusterStateIndex: bitmap pick of " + std::to_string(count) +
                           " nodes diverged from Machine::find_free_nodes");
  }
  return picked;
}

std::optional<std::vector<int>> ClusterStateIndex::pick_from_bitmap(
    int count, const JobConstraints* constraints) const {
  assert(count >= 1);
  // Mirror Machine::find_free_nodes' early-outs exactly: global free count
  // first, then the eligible-free count for constrained requests.
  if (count > free_runs_.free_count()) return std::nullopt;
  if (constraints == nullptr || constraints->unconstrained()) {
    return free_runs_.pick(count, all_classes_, /*contiguous=*/false);
  }
  std::vector<int> eligible;
  eligible.reserve(classes_.size());
  int eligible_free = 0;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    if (node_satisfies(classes_[c].attributes, *constraints)) {
      eligible.push_back(static_cast<int>(c));
      eligible_free += free_runs_.free_count_of_class(static_cast<int>(c));
    }
  }
  if (eligible_free < count) return std::nullopt;
  return free_runs_.pick(count, eligible, constraints->contiguous);
}

std::uint64_t ClusterStateIndex::eligible_class_mask(
    const JobConstraints& constraints) const {
  assert(classes_.size() <= 64 && "class mask only supports <= 64 attribute classes");
  std::uint64_t mask = 0;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    if (node_satisfies(classes_[c].attributes, constraints)) mask |= 1ull << c;
  }
  return mask;
}

int ClusterStateIndex::node_count_for_mask(std::uint64_t mask) const {
  int total = 0;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    if ((mask >> c) & 1u) total += classes_[c].total;
  }
  return total;
}

void ClusterStateIndex::busy_groups_for_mask(
    std::uint64_t mask, SimTime now, std::vector<std::pair<SimTime, int>>& out) const {
  std::vector<int> selected;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    if ((mask >> c) & 1u) selected.push_back(static_cast<int>(c));
  }
  release_groups(selected, now, out);
}

bool ClusterStateIndex::check_consistent(std::string* diagnosis) const {
  const auto fail = [diagnosis](const std::string& what) {
    if (diagnosis != nullptr) *diagnosis = what;
    return false;
  };

  int expect_occupied = 0;
  std::vector<std::map<SimTime, int>> expect_class_busy(classes_.size());
  std::vector<bool> is_free(static_cast<std::size_t>(machine_.node_count()), false);
  for (int id = 0; id < machine_.node_count(); ++id) {
    const SimTime expect = scan_free_at(id);
    if (node_free_at_[static_cast<std::size_t>(id)] != expect) {
      std::ostringstream oss;
      oss << "node " << id << ": indexed free_at "
          << node_free_at_[static_cast<std::size_t>(id)] << " != scanned " << expect;
      return fail(oss.str());
    }
    const int cls = node_class_[static_cast<std::size_t>(id)];
    if (expect == kEmptyNode) {
      is_free[static_cast<std::size_t>(id)] = true;
    } else {
      ++expect_class_busy[static_cast<std::size_t>(cls)][expect];
      ++expect_occupied;
    }
  }
  if (machine_.occupied_nodes() != expect_occupied) {
    std::ostringstream oss;
    oss << "machine occupied_nodes " << machine_.occupied_nodes() << " != scanned "
        << expect_occupied;
    return fail(oss.str());
  }
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    if (classes_[c].busy != expect_class_busy[c]) {
      std::ostringstream oss;
      oss << "attribute class " << c << ": busy map diverged from node scan";
      return fail(oss.str());
    }
  }
  // Free-node bitmap: every bit, the summary invariant and the per-class
  // free counts against the scan.
  std::string runs_diag;
  if (!free_runs_.check_consistent(is_free, &runs_diag)) return fail(runs_diag);
  // The class partition must reproduce the machine's own constraint answers.
  for (const AttrClass& cls : classes_) {
    JobConstraints probe;
    probe.required_arch = cls.attributes.arch;
    probe.min_memory_gb = cls.attributes.memory_gb;
    probe.required_network = cls.attributes.network;
    if (eligible_node_count(probe) != machine_.eligible_node_count(probe)) {
      return fail("eligible_node_count diverged from machine for class probe");
    }
  }
  return true;
}

}  // namespace sdsched

#include "drom/node_manager.h"

#include <algorithm>
#include <cassert>

#include "util/logging.h"

namespace sdsched {

namespace {

NodeShare* find_share(Job& job, int node_id) {
  for (auto& share : job.shares) {
    if (share.node == node_id) return &share;
  }
  return nullptr;
}

void erase_id(std::vector<JobId>& ids, JobId id) {
  ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
}

}  // namespace

std::optional<CpuMask> NodeManager::mask(JobId job, int node_id) const {
  const Node& node = machine_.node(node_id);
  std::vector<CpuDemand> demands;
  demands.reserve(node.occupant_count());
  for (const auto& occ : node.occupants()) {
    demands.push_back(CpuDemand{occ.job, occ.cpus});
  }
  const NodeConfig config{node.sockets(), node.cores_per_socket()};
  for (auto& placement : distribute_cpu(config, demands)) {
    if (placement.job == job) return std::move(placement.mask);
  }
  return std::nullopt;
}

void NodeManager::start_static(SimTime now, JobId job_id, const std::vector<int>& nodes) {
  Job& job = jobs_.at(job_id);
  assert(job.shares.empty());
  const auto split = balanced_split(job.spec.req_cpus, static_cast<int>(nodes.size()));
  const bool ok = machine_.allocate_exclusive(now, job_id, nodes, split);
  assert(ok && "static start on non-empty nodes");
  (void)ok;
  job.shares.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const int held = std::max(1, split[i]);
    job.shares.push_back(NodeShare{nodes[i], held, held});
  }
}

std::vector<JobId> NodeManager::start_guest(SimTime now, JobId guest_id,
                                            const std::vector<SharePlan>& plan) {
  Job& guest = jobs_.at(guest_id);
  assert(guest.shares.empty());
  std::vector<JobId> affected;
  for (const auto& entry : plan) {
    if (entry.mate != kInvalidJob) {
      Job& mate = jobs_.at(entry.mate);
      NodeShare* mate_share = find_share(mate, entry.node);
      assert(mate_share != nullptr && "plan references a node the mate does not hold");
      assert(entry.mate_kept_cpus >= 1);
      const bool resized = machine_.resize_share(now, entry.mate, entry.node,
                                                 entry.mate_kept_cpus);
      assert(resized && "mate shrink failed");
      (void)resized;
      drom_.record_resize(mate_share->cpus, entry.mate_kept_cpus);
      mate_share->cpus = entry.mate_kept_cpus;
      ++mate.pending_reconfig_ops;
      if (std::find(affected.begin(), affected.end(), entry.mate) == affected.end()) {
        affected.push_back(entry.mate);
      }
    }
    const bool placed = machine_.add_share(now, guest_id, entry.node, entry.guest_cpus);
    assert(placed && "guest placement failed");
    (void)placed;
    guest.shares.push_back(
        NodeShare{entry.node, entry.guest_cpus, std::max(1, entry.guest_static_cpus)});
  }

  guest.started_as_guest = true;
  for (const JobId mate_id : affected) {
    Job& mate = jobs_.at(mate_id);
    mate.ever_mate = true;
    ++mate.shrink_count;
    mate.guests.push_back(guest_id);
    guest.mates.push_back(mate_id);
  }
  log_debug("node_mgr", "guest ", guest_id, " co-scheduled on ", plan.size(), " nodes with ",
            affected.size(), " mates");
  return affected;
}

bool NodeManager::expand_on_node(SimTime now, Job& job, int node_id, int available) {
  NodeShare* share = find_share(job, node_id);
  if (share == nullptr) return false;
  const int target = std::min(share->static_cpus, share->cpus + available);
  if (target <= share->cpus) return false;
  const bool resized = machine_.resize_share(now, job.spec.id, node_id, target);
  assert(resized);
  (void)resized;
  drom_.record_resize(share->cpus, target);
  share->cpus = target;
  ++job.pending_reconfig_ops;
  return true;
}

std::vector<JobId> NodeManager::finish_job(SimTime now, JobId job_id) {
  Job& job = jobs_.at(job_id);
  std::vector<JobId> affected;
  for (const auto& share : job.shares) {
    const int node_id = share.node;
    const int freed = machine_.remove_share(now, job_id, node_id);
    assert(freed == share.cpus);
    (void)freed;

    // Redistribute to survivors (Listing 3): owners reclaim what a guest
    // releases; when an owner leaves early its cores go to the remaining
    // malleable occupants. Deterministic order: node occupant list. Every
    // survivor is reported as affected — even if its cpus did not change,
    // its contention environment did.
    const Node& node = machine_.node(node_id);
    if (!node.empty()) {
      int available = node.free_cores();
      for (const auto& occ : node.occupants()) {
        Job& survivor = jobs_.at(occ.job);
        // Moldable guests keep their shape; malleable survivors expand.
        if (survivor.malleable() && available > 0) {
          const int before = occ.cpus;
          if (expand_on_node(now, survivor, node_id, available)) {
            const auto grown = machine_.node(node_id).occupant(occ.job);
            available -= grown->cpus - before;
            ++survivor.shrink_count;
          }
        }
        if (std::find(affected.begin(), affected.end(), occ.job) == affected.end()) {
          affected.push_back(occ.job);
        }
      }
    }
  }
  job.shares.clear();

  // Reciprocal bookkeeping so mate eligibility recovers once guests leave.
  for (const JobId mate_id : job.mates) {
    erase_id(jobs_.at(mate_id).guests, job_id);
  }
  for (const JobId guest_id : job.guests) {
    erase_id(jobs_.at(guest_id).mates, job_id);
  }
  return affected;
}

}  // namespace sdsched

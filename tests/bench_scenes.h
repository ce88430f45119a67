// The two fixed scenes the exact-counter tests pin and bench/micro_scheduler
// times (BM_SdSaturatedPass, BM_FreeNodePick):
//
//  * SaturatedSdScene — a full Curie-sized machine (5040 nodes x 16 cores)
//    of 2-node running mates in 16 release waves, and `depth` pending
//    malleable guests of `guest_nodes` nodes (3 by default). Nothing can
//    start statically, and no mate search finds a plan, so every considered
//    guest ends in a failed search or a ledger skip: the saturated steady
//    state of a deep queue. At 3 nodes Eq. 3 (mate node counts summing to
//    the guest's, at most 2 mates) has no solution, so each search is a
//    weight rejection that scans no candidate. At 4 nodes two mates do sum
//    to W, so each search scans every mate, and each one fails Eq. 2: all
//    running jobs sit at slowdown 1, so DynAVGSD's cut-off is 1 and any
//    shrink penalty exceeds it.
//  * FreePickScene — a machine filled lowest-first with 8-node jobs, a
//    deterministic pseudo-random half of them completed, and the low ids a
//    fixed-size highmem region, plus the cycle of pick shapes (count x
//    contiguous x highmem) a scheduler asks of it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <vector>

#include "cluster/cluster_state_index.h"
#include "core/sd_policy.h"
#include "drom/node_manager.h"

namespace sdsched::testing_support {

/// The scenes keep nothing startable; a pass that disagrees aborts.
class NoStartExecutor final : public StartExecutor {
 public:
  void start_static(JobId, const std::vector<int>&) override { std::abort(); }
  void start_guest(JobId, const MatePlan&) override { std::abort(); }
};

inline MachineConfig curie_shaped(int nodes) {
  MachineConfig mc;
  mc.nodes = nodes;
  mc.node = NodeConfig{2, 8};  // 16 cores per node
  return mc;
}

inline JobId add_whole_node_job(JobRegistry& jobs, int cores, int nodes, SimTime req_time) {
  JobSpec spec;
  spec.req_cpus = nodes * cores;
  spec.req_nodes = nodes;
  spec.req_time = req_time;
  spec.base_runtime = req_time;
  return jobs.add(spec);
}

struct SaturatedSdScene {
  static constexpr int kNodes = 5040;
  static constexpr int kGuestBudget = 64;

  /// Default SchedConfig (bf_max_jobs 1000), DynAVGSD, guest budget 64.
  explicit SaturatedSdScene(int depth, int guest_nodes = 3)
      : machine(curie_shaped(kNodes)), mgr(machine, jobs, drom), index(machine, jobs) {
    const int cores = machine.cores_per_node();
    for (int i = 0; i < kNodes / 2; ++i) {
      const JobId id = add_whole_node_job(jobs, cores, 2, 1000000);
      jobs.at(id).state = JobState::Running;
      jobs.at(id).start_time = 0;
      jobs.at(id).predicted_end = 1000000 + (i % 16) * 1000;
      mgr.start_static(0, id, {2 * i, 2 * i + 1});
    }
    // Built after the mates start: its MateRegistry seeds from the job table.
    SdConfig sd;
    sd.scan.guest_budget = kGuestBudget;
    scheduler.emplace(machine, jobs, executor, SchedConfig{}, sd);
    scheduler->set_cluster_index(&index);
    for (int q = 0; q < depth; ++q) {
      scheduler->on_submit(add_whole_node_job(jobs, cores, guest_nodes, 600));
    }
  }

  /// Passes at t = 1, 2, ..., `passes`.
  void run_passes(int passes) {
    for (int p = 0; p < passes; ++p) scheduler->schedule_pass(1 + p);
  }

  Machine machine;
  JobRegistry jobs;
  DromRegistry drom;
  NodeManager mgr;
  ClusterStateIndex index;
  NoStartExecutor executor;
  std::optional<SdPolicyScheduler> scheduler;
};

struct FreePickScene {
  static constexpr int kBlock = 8;  ///< nodes per filling job

  struct Shape {
    const JobConstraints* constraints;  ///< nullptr = unconstrained
    int count;
  };

  explicit FreePickScene(int nodes)
      : machine(config(nodes)), mgr(machine, jobs, drom), index(machine, jobs) {
    contiguous.contiguous = true;
    highmem.min_memory_gb = 256;
    highmem_contiguous = highmem;
    highmem_contiguous.contiguous = true;
    const JobConstraints* const variants[] = {nullptr, &contiguous, &highmem,
                                              &highmem_contiguous};
    for (const int count : {1, 4, 16, 64}) {
      for (const JobConstraints* c : variants) shapes.push_back(Shape{c, count});
    }
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;  // xorshift64
    std::vector<JobId> blocks;
    for (int first = 0; first + kBlock <= nodes; first += kBlock) {
      const JobId job = add_whole_node_job(jobs, machine.cores_per_node(), kBlock, 1000000);
      jobs.at(job).state = JobState::Running;
      jobs.at(job).predicted_end = 1000000;
      std::vector<int> ids(kBlock);
      for (int i = 0; i < kBlock; ++i) ids[static_cast<std::size_t>(i)] = first + i;
      mgr.start_static(0, job, ids);
      blocks.push_back(job);
    }
    for (const JobId job : blocks) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      if ((state & 1) == 0) continue;
      jobs.at(job).state = JobState::Completed;
      mgr.finish_job(1, job);
    }
  }

  /// Nodes below min(nodes / 4, 512) carry 384 GB (the highmem region).
  static MachineConfig config(int nodes) {
    MachineConfig mc = curie_shaped(nodes);
    NodeAttributes attrs;
    attrs.memory_gb = 384;
    for (int id = 0; id < std::min(nodes / 4, 512); ++id) {
      mc.attribute_overrides.emplace_back(id, attrs);
    }
    return mc;
  }

  Machine machine;
  JobRegistry jobs;
  DromRegistry drom;
  NodeManager mgr;
  ClusterStateIndex index;
  JobConstraints contiguous;
  JobConstraints highmem;
  JobConstraints highmem_contiguous;
  std::vector<Shape> shapes;  ///< 16 shapes, cycled in order
};

}  // namespace sdsched::testing_support

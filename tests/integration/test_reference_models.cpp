// Reference-model property tests: the optimized implementations are checked
// against brute-force oracles under randomized inputs.
//
//  * ReservationProfile vs a naive per-second availability array;
//  * MateSelector's branch-and-bound vs exhaustive combination search;
//  * MateSelector's closed-form mate budgets vs budgets read off the nodes.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <tuple>

#include "cluster/cluster_state_index.h"
#include "core/adaptive_sharing.h"
#include "core/mate_registry.h"
#include "core/mate_selector.h"
#include "drom/node_manager.h"
#include "sched/reservation.h"
#include "util/rng.h"
#include "workload/app_profiles.h"

namespace sdsched {
namespace {

// ---------------------------------------------------------------------------
// ReservationProfile oracle
// ---------------------------------------------------------------------------

/// Naive availability model over a bounded horizon.
class NaiveProfile {
 public:
  NaiveProfile(int capacity, SimTime horizon)
      : capacity_(capacity), free_(static_cast<std::size_t>(horizon), capacity) {}

  void reserve(SimTime start, SimTime end, int nodes) {
    for (SimTime t = start; t < std::min<SimTime>(end, horizon()); ++t) free_[t] -= nodes;
  }
  [[nodiscard]] int available_at(SimTime t) const {
    return t < horizon() ? free_[t] : capacity_;
  }
  [[nodiscard]] SimTime earliest_start(int nodes, SimTime duration, SimTime not_before) const {
    for (SimTime start = not_before; start < horizon(); ++start) {
      bool ok = true;
      for (SimTime t = start; t < start + duration && ok; ++t) {
        if (available_at(t) < nodes) ok = false;
      }
      if (ok) return start;
    }
    return horizon();
  }

 private:
  [[nodiscard]] SimTime horizon() const { return static_cast<SimTime>(free_.size()); }
  int capacity_;
  std::vector<int> free_;
};

class ReservationOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReservationOracle, MatchesNaiveModelUnderRandomOps) {
  constexpr int kCapacity = 12;
  constexpr SimTime kHorizon = 600;
  Rng rng(GetParam());
  ReservationProfile profile(kCapacity);
  NaiveProfile naive(kCapacity, kHorizon);

  // Random reservations that never drive availability negative: emulate the
  // real usage pattern (reserve within what earliest_start reported free).
  for (int op = 0; op < 60; ++op) {
    const int nodes = static_cast<int>(rng.uniform_int(1, 4));
    const auto duration = static_cast<SimTime>(rng.uniform_int(5, 60));
    const auto not_before = static_cast<SimTime>(rng.uniform_int(0, 200));
    const SimTime start = profile.earliest_start(nodes, duration, not_before);
    ASSERT_NE(start, ReservationProfile::kNever);
    ASSERT_EQ(start, naive.earliest_start(nodes, duration, not_before))
        << "op " << op << " nodes " << nodes << " dur " << duration << " nb " << not_before;
    if (start + duration < kHorizon) {
      profile.reserve(start, start + duration, nodes);
      naive.reserve(start, start + duration, nodes);
    }
  }

  // Spot-check availability pointwise.
  for (SimTime t = 0; t < 300; t += 7) {
    ASSERT_EQ(profile.available_at(t), naive.available_at(t)) << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReservationOracle,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// MateSelector oracle
// ---------------------------------------------------------------------------

struct SelectorWorld {
  explicit SelectorWorld(int nodes)
      : machine(make_machine(nodes)), mgr(machine, jobs, drom) {}

  static MachineConfig make_machine(int nodes) {
    MachineConfig config;
    config.nodes = nodes;
    config.node = NodeConfig{2, 24};
    return config;
  }

  JobId run_job(int node_count, SimTime submit, SimTime start, SimTime req) {
    JobSpec spec;
    spec.submit = submit;
    spec.req_time = req;
    spec.base_runtime = req;
    spec.req_cpus = node_count * 48;
    spec.req_nodes = node_count;
    return run_spec(spec, start);
  }

  /// Start `spec` statically at `start` on the lowest free nodes.
  JobId run_spec(const JobSpec& spec, SimTime start) {
    const JobId id = jobs.add(spec);
    Job& job = jobs.at(id);
    job.state = JobState::Running;
    job.start_time = start;
    job.predicted_end = start + spec.req_time;
    mgr.start_static(start, id, *machine.find_free_nodes(spec.req_nodes));
    registry.on_start(jobs.at(id), jobs);
    return id;
  }

  /// A selector over this world's registry and index.
  MateSelector make_selector(const SdConfig& sd) {
    MateSelector selector(machine, jobs, sd, registry);
    selector.set_cluster_index(&index);
    return selector;
  }

  Machine machine;
  JobRegistry jobs;
  ClusterStateIndex index{machine, jobs};
  DromRegistry drom;
  NodeManager mgr;
  MateRegistry registry;
};

/// Exhaustive minimum-PI search (m <= 2) with the same penalty math: mate
/// penalty = (wait + (1-sf)*D + req)/req where D = req_guest / sf, for
/// full-node uniform mates (the world this test constructs).
double brute_force_best_pi(const SelectorWorld& world, const Job& guest, SimTime now,
                           double sharing_factor) {
  const auto d = static_cast<double>(guest.spec.req_time) / sharing_factor;
  const SimTime mall_end = now + static_cast<SimTime>(std::ceil(d));
  std::vector<const Job*> mates;
  for (const auto& job : world.jobs) {
    if (job.running() && !job.started_as_guest && job.guests.empty() &&
        job.spec.req_nodes <= guest.spec.req_nodes && job.predicted_end >= mall_end) {
      mates.push_back(&job);
    }
  }
  const auto penalty = [&](const Job& mate) {
    const auto req = static_cast<double>(mate.spec.req_time);
    const double increase = (1.0 - sharing_factor) * d;
    return (static_cast<double>(mate.wait_time(now)) + std::ceil(increase) + req) / req;
  };
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < mates.size(); ++i) {
    if (mates[i]->spec.req_nodes == guest.spec.req_nodes) {
      best = std::min(best, penalty(*mates[i]));
    }
    for (std::size_t j = i + 1; j < mates.size(); ++j) {
      if (mates[i]->spec.req_nodes + mates[j]->spec.req_nodes == guest.spec.req_nodes) {
        best = std::min(best, penalty(*mates[i]) + penalty(*mates[j]));
      }
    }
  }
  return best;
}

class SelectorOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SelectorOracle, BranchAndBoundMatchesBruteForce) {
  Rng rng(GetParam());
  SelectorWorld world(24);

  // Random running population: 6-10 jobs of 1-3 nodes with varied waits.
  const int population = static_cast<int>(rng.uniform_int(6, 10));
  for (int i = 0; i < population; ++i) {
    const int nodes = static_cast<int>(rng.uniform_int(1, 3));
    const auto submit = static_cast<SimTime>(rng.uniform_int(0, 500));
    const auto start = submit + static_cast<SimTime>(rng.uniform_int(0, 2000));
    const auto req = static_cast<SimTime>(rng.uniform_int(50000, 200000));
    if (world.machine.free_node_count() >= nodes) {
      world.run_job(nodes, submit, start, req);
    }
  }

  JobSpec guest_spec;
  guest_spec.req_nodes = static_cast<int>(rng.uniform_int(1, 4));
  guest_spec.req_cpus = guest_spec.req_nodes * 48;
  guest_spec.req_time = static_cast<SimTime>(rng.uniform_int(100, 2000));
  guest_spec.base_runtime = guest_spec.req_time;
  guest_spec.submit = 2600;
  const JobId guest_id = world.jobs.add(guest_spec);
  const Job& guest = world.jobs.at(guest_id);

  SdConfig sd;
  sd.cutoff = CutoffConfig::infinite();
  const MateSelector selector = world.make_selector(sd);
  const SimTime now = 2600;
  const auto plan =
      selector.select(guest, now, std::numeric_limits<double>::infinity());
  const double brute = brute_force_best_pi(world, guest, now, sd.sharing_factor);

  if (std::isinf(brute)) {
    EXPECT_FALSE(plan.has_value());
  } else {
    ASSERT_TRUE(plan.has_value());
    EXPECT_NEAR(plan->performance_impact, brute, brute * 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectorOracle,
                         ::testing::Values(3, 7, 11, 19, 23, 31, 43, 59, 71, 97));

/// (ranks_per_node, SharingFactor, adaptive sharing).
using BudgetCase = std::tuple<int, double, bool>;

class BudgetSelectorOracle : public ::testing::TestWithParam<BudgetCase> {};

/// Table-2 profile `index`, or null for none (adaptive sharing's pairing).
const ApplicationProfile* profile_at(int index) {
  const auto& profiles = table2_profiles();
  if (index < 0 || index >= static_cast<int>(profiles.size())) return nullptr;
  return &profiles[static_cast<std::size_t>(index)];
}

// The selector computes a listed mate's per-node budget from its static
// split alone. This oracle reads the same budget off the machine instead
// (the node's free cores and the mate's current cpus) and checks every
// node of every plan against it, on states SelectorOracle never builds:
// mates narrower than their nodes (idle cores), uneven splits
// (req_cpus % nodes != 0), several rank floors and SharingFactors, and
// SharingFactors paired per (mate, guest) by adaptive sharing.
TEST_P(BudgetSelectorOracle, PlansMatchNodeReadBudgets) {
  const auto [ranks_per_node, sharing_factor, adaptive] = GetParam();
  const int profiles = static_cast<int>(table2_profiles().size());
  int plans = 0;
  int uneven_mates = 0;  ///< plan nodes of a mate with req_cpus % nodes != 0
  int shrunk_mates = 0;  ///< plan nodes where the guest takes mate cpus
  for (const std::uint64_t seed : {5, 17, 29, 41, 53, 67}) {
    Rng rng(seed);
    SelectorWorld world(24);
    while (world.machine.free_node_count() >= 3) {
      JobSpec spec;
      spec.req_nodes = static_cast<int>(rng.uniform_int(1, 3));
      // 12-47 cpus per node, plus a remainder the split spreads unevenly.
      spec.req_cpus = spec.req_nodes * static_cast<int>(rng.uniform_int(12, 47)) +
                      static_cast<int>(rng.uniform_int(0, spec.req_nodes - 1));
      spec.ranks_per_node = ranks_per_node;
      spec.app_profile = static_cast<int>(rng.uniform_int(-1, profiles - 1));
      spec.submit = static_cast<SimTime>(rng.uniform_int(0, 500));
      spec.req_time = static_cast<SimTime>(rng.uniform_int(50000, 200000));
      spec.base_runtime = spec.req_time;
      world.run_spec(spec, spec.submit + static_cast<SimTime>(rng.uniform_int(0, 2000)));
    }

    SdConfig sd;
    sd.cutoff = CutoffConfig::infinite();
    sd.sharing_factor = sharing_factor;
    sd.adaptive_sharing = adaptive;
    const MateSelector selector = world.make_selector(sd);
    for (int g = 0; g < 8; ++g) {
      JobSpec guest_spec;
      guest_spec.req_nodes = static_cast<int>(rng.uniform_int(1, 4));
      guest_spec.req_cpus = guest_spec.req_nodes * static_cast<int>(rng.uniform_int(8, 47)) +
                            static_cast<int>(rng.uniform_int(0, guest_spec.req_nodes - 1));
      guest_spec.app_profile = static_cast<int>(rng.uniform_int(-1, profiles - 1));
      guest_spec.req_time = static_cast<SimTime>(rng.uniform_int(100, 2000));
      guest_spec.base_runtime = guest_spec.req_time;
      guest_spec.submit = 2600;
      const Job& guest = world.jobs.at(world.jobs.add(guest_spec));
      const auto plan =
          selector.select(guest, 2600, std::numeric_limits<double>::infinity());
      if (!plan) continue;
      ++plans;
      for (const SharePlan& entry : plan->nodes) {
        ASSERT_NE(entry.mate, kInvalidJob);  // no free nodes without include_free_nodes
        const Job& mate = world.jobs.at(entry.mate);
        const NodeShare* share = nullptr;
        for (const NodeShare& s : mate.shares) {
          if (s.node == entry.node) share = &s;
        }
        ASSERT_NE(share, nullptr);
        // The node-read fill: free cores, current cpus and what the mate
        // already gave up, all from the machine and the mate's share.
        const Node& node = world.machine.node(entry.node);
        const double sf = adaptive ? adaptive_sharing_factor(sharing_factor,
                                                             profile_at(mate.spec.app_profile),
                                                             profile_at(guest.spec.app_profile))
                                   : sharing_factor;
        const int mate_static = std::max(1, share->static_cpus);
        const int mate_min = std::max(1, mate.spec.ranks_per_node);
        const int idle = node.free_cores();
        const int take_cap = static_cast<int>(std::floor(sf * node.total_cores()));
        const int max_take = std::clamp(
            std::min(take_cap - (mate_static - share->cpus), share->cpus - mate_min), 0,
            share->cpus);
        const int guest_cpus = std::min(entry.guest_static_cpus, idle + max_take);
        EXPECT_EQ(entry.guest_cpus, guest_cpus) << "job " << entry.mate << " node " << entry.node;
        EXPECT_EQ(entry.mate_kept_cpus, share->cpus - std::max(0, guest_cpus - idle))
            << "job " << entry.mate << " node " << entry.node;
        if (mate.spec.req_cpus % mate.spec.req_nodes != 0) ++uneven_mates;
        if (guest_cpus > idle) ++shrunk_mates;
      }
    }
  }
  // Neither half of the comparison may be vacuous.
  EXPECT_GT(plans, 0);
  EXPECT_GT(uneven_mates, 0);
  EXPECT_GT(shrunk_mates, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BudgetSelectorOracle,
    ::testing::Combine(::testing::Values(1, 2, 4), ::testing::Values(0.25, 0.5, 0.75, 1.0),
                       ::testing::Bool()));

// ---------------------------------------------------------------------------
// NodeManager conservation under random churn
// ---------------------------------------------------------------------------

TEST(NodeManagerChurn, NoCoreLeaksAcrossRandomStartsAndFinishes) {
  Rng rng(1234);
  SelectorWorld world(16);
  SdConfig sd;
  sd.cutoff = CutoffConfig::infinite();
  const MateSelector selector = world.make_selector(sd);

  std::vector<JobId> running;
  SimTime now = 0;
  for (int step = 0; step < 200; ++step) {
    now += rng.uniform_int(1, 100);
    const int action = static_cast<int>(rng.uniform_int(0, 2));
    if (action <= 1) {
      // Try to start a job: statically if room, else as a guest.
      const int nodes = static_cast<int>(rng.uniform_int(1, 3));
      if (world.machine.free_node_count() >= nodes) {
        running.push_back(world.run_job(nodes, now, now, rng.uniform_int(5000, 50000)));
      } else {
        JobSpec spec;
        spec.req_nodes = nodes;
        spec.req_cpus = nodes * 48;
        spec.req_time = rng.uniform_int(100, 1000);
        spec.base_runtime = spec.req_time;
        spec.submit = now;
        const JobId id = world.jobs.add(spec);
        const auto plan = selector.select(world.jobs.at(id), now,
                                          std::numeric_limits<double>::infinity());
        if (plan) {
          Job& guest = world.jobs.at(id);
          guest.state = JobState::Running;
          guest.start_time = now;
          guest.predicted_end = now + plan->guest_duration;
          for (std::size_t i = 0; i < plan->mates.size(); ++i) {
            Job& mate = world.jobs.at(plan->mates[i]);
            mate.predicted_end += plan->mate_increases[i];
            world.index.on_predicted_end_changed(plan->mates[i]);
          }
          world.mgr.start_guest(now, id, plan->nodes);
          world.registry.on_start(world.jobs.at(id), world.jobs);
          running.push_back(id);
        }
      }
    } else if (!running.empty()) {
      const auto victim = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(running.size()) - 1));
      const JobId id = running[victim];
      running.erase(running.begin() + victim);
      world.jobs.at(id).state = JobState::Completed;
      world.jobs.at(id).end_time = now;
      world.mgr.finish_job(now, id);
      world.registry.on_finish(world.jobs.at(id), world.jobs);
    }

    // Invariants after every step.
    int share_total = 0;
    for (const auto& job : world.jobs) {
      for (const auto& share : job.shares) {
        ASSERT_GE(share.cpus, 1);
        const auto occ = world.machine.node(share.node).occupant(job.spec.id);
        ASSERT_TRUE(occ.has_value()) << "job/machine share mismatch";
        ASSERT_EQ(occ->cpus, share.cpus);
        share_total += share.cpus;
      }
    }
    ASSERT_EQ(share_total, world.machine.busy_cores());
    for (int n = 0; n < world.machine.node_count(); ++n) {
      ASSERT_LE(world.machine.node(n).used_cores(), world.machine.node(n).total_cores());
    }
  }

  // Drain everything; the machine must come back empty.
  for (const JobId id : running) {
    world.jobs.at(id).state = JobState::Completed;
    world.mgr.finish_job(now + 1, id);
  }
  EXPECT_EQ(world.machine.busy_cores(), 0);
  EXPECT_EQ(world.machine.free_node_count(), 16);
}

}  // namespace
}  // namespace sdsched

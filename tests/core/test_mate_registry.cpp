// The MateRegistry must mirror a brute-force job-table scan through the
// whole lifecycle (starts, guest starts, finishes), and a selector over the
// incrementally maintained registry, kept across mutations, must make the
// *identical* decisions a fresh selector over a freshly seed()ed registry
// makes.
#include "core/mate_registry.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <optional>

#include "cluster/cluster_state_index.h"
#include "core/mate_selector.h"
#include "drom/node_manager.h"
#include "mate_plan_parity.h"

namespace sdsched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

JobSpec spec_of(SimTime submit, SimTime req_time, int req_nodes, int cores_per_node,
                MalleabilityClass cls = MalleabilityClass::Malleable) {
  JobSpec spec;
  spec.submit = submit;
  spec.req_time = req_time;
  spec.base_runtime = req_time;
  spec.req_cpus = req_nodes * cores_per_node;
  spec.req_nodes = req_nodes;
  spec.malleability = cls;
  return spec;
}

TEST(MateRegistry, TracksLifecycleTransitions) {
  JobRegistry jobs;
  MateRegistry registry;

  const JobId malleable = jobs.add(spec_of(0, 100, 1, 48));
  const JobId rigid = jobs.add(spec_of(0, 100, 1, 48, MalleabilityClass::Rigid));
  const JobId guest = jobs.add(spec_of(0, 100, 1, 48));

  jobs.at(malleable).state = JobState::Running;
  registry.on_start(jobs.at(malleable), jobs);
  jobs.at(rigid).state = JobState::Running;
  registry.on_start(jobs.at(rigid), jobs);
  jobs.at(guest).state = JobState::Running;
  jobs.at(guest).started_as_guest = true;
  registry.on_start(jobs.at(guest), jobs);

  // All three run; only the plain malleable job is mate-eligible.
  EXPECT_EQ(registry.running(), (std::vector<JobId>{malleable, rigid, guest}));
  EXPECT_EQ(registry.mates(), (std::vector<JobId>{malleable}));
  std::string diag;
  EXPECT_TRUE(registry.check_consistent(jobs, &diag)) << diag;

  jobs.at(malleable).state = JobState::Completed;
  registry.on_finish(jobs.at(malleable), jobs);
  EXPECT_EQ(registry.running(), (std::vector<JobId>{rigid, guest}));
  EXPECT_TRUE(registry.mates().empty());
  EXPECT_TRUE(registry.check_consistent(jobs, &diag)) << diag;
}

TEST(MateRegistry, SeedIndexesAPopulatedRegistry) {
  JobRegistry jobs;
  const JobId a = jobs.add(spec_of(0, 100, 1, 48));
  const JobId b = jobs.add(spec_of(0, 100, 1, 48));
  jobs.at(a).state = JobState::Running;
  jobs.at(b).state = JobState::Running;
  jobs.at(b).started_as_guest = true;

  MateRegistry registry;
  registry.seed(jobs);
  EXPECT_EQ(registry.running(), (std::vector<JobId>{a, b}));
  EXPECT_EQ(registry.mates(), (std::vector<JobId>{a}));
}

TEST(MateRegistry, CheckConsistentCatchesAMissedStart) {
  JobRegistry jobs;
  const JobId a = jobs.add(spec_of(0, 100, 1, 48));
  jobs.at(a).state = JobState::Running;

  MateRegistry registry;  // never told about `a`
  std::string diag;
  EXPECT_FALSE(registry.check_consistent(jobs, &diag));
  EXPECT_FALSE(diag.empty());
}

/// Running malleable job holding `weight` (placeholder) node shares, listed
/// the way the scheduler's start hook lists it: after its placement.
JobId start_weighted(JobRegistry& jobs, MateRegistry& registry, int weight) {
  const JobId id = jobs.add(spec_of(0, 100, weight, 48));
  Job& job = jobs.at(id);
  job.state = JobState::Running;
  for (int node = 0; node < weight; ++node) job.shares.push_back(NodeShare{node, 48, 48});
  registry.on_start(job, jobs);
  return id;
}

TEST(MateRegistry, CheckConsistentCatchesAStaleWeight) {
  JobRegistry jobs;
  MateRegistry registry;
  const JobId a = start_weighted(jobs, registry, 2);
  start_weighted(jobs, registry, 3);
  std::string diag;
  EXPECT_TRUE(registry.check_consistent(jobs, &diag)) << diag;
  EXPECT_TRUE(registry.can_sum_to(5, 2));

  // A change the registry never hears of: `a` now holds 4 nodes, so the
  // histogram still files it under 2 while the job scan counts it under 4.
  jobs.at(a).shares.resize(4, NodeShare{0, 48, 48});
  EXPECT_FALSE(registry.check_consistent(jobs, &diag));
  EXPECT_EQ(diag,
            "mate registry weight histogram diverged from the job scan "
            "(node count 2: indexed 1 mates, scanned 0)");
}

TEST(MateRegistry, WeightHistogramFollowsListingChanges) {
  // A finish clears the job's shares before the registry hears of it, so
  // unlisting must use the weight recorded at listing time.
  JobRegistry jobs;
  MateRegistry registry;
  const JobId a = start_weighted(jobs, registry, 3);
  start_weighted(jobs, registry, 3);
  EXPECT_TRUE(registry.can_sum_to(6, 2));
  jobs.at(a).state = JobState::Completed;
  jobs.at(a).shares.clear();
  registry.on_finish(jobs.at(a), jobs);
  std::string diag;
  EXPECT_TRUE(registry.check_consistent(jobs, &diag)) << diag;
  EXPECT_TRUE(registry.can_sum_to(3, 2));
  EXPECT_FALSE(registry.can_sum_to(6, 2));  // one 3-node mate is left

  MateRegistry seeded;
  seeded.seed(jobs);
  EXPECT_TRUE(seeded.check_consistent(jobs, &diag)) << diag;
  EXPECT_TRUE(seeded.can_sum_to(3, 1));
}

/// Whether `weight` is the sum of at most `max_mates` entries of `weights`,
/// each entry used at most once: every subset, enumerated.
bool brute_force_sum(const std::vector<int>& weights, int weight, int max_mates) {
  const std::size_t n = weights.size();
  for (std::uint32_t mask = 1; mask < (1u << n); ++mask) {
    if (std::popcount(mask) > max_mates) continue;
    int sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if ((mask >> i) & 1u) sum += weights[i];
    }
    if (sum == weight) return true;
  }
  return false;
}

TEST(MateRegistry, CanSumToMatchesBruteForce) {
  std::uint64_t state = 0x853c49e6748fea9bULL;  // xorshift64
  const auto rnd = [&state](std::uint64_t bound) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<int>(state % bound);
  };
  int reachable = 0;
  int unreachable = 0;
  for (int round = 0; round < 200; ++round) {
    JobRegistry jobs;
    MateRegistry registry;
    // A few distinct weights drawn up to 32, several mates each, so the
    // histogram has duplicates; then some mates finish again.
    std::vector<int> pool(1 + static_cast<std::size_t>(rnd(5)));
    for (int& w : pool) w = 1 + rnd(32);
    std::vector<JobId> ids;
    for (int i = rnd(13); i > 0; --i) {
      ids.push_back(start_weighted(jobs, registry, pool[static_cast<std::size_t>(
                                                        rnd(pool.size()))]));
    }
    std::vector<int> listed;
    for (const JobId id : ids) {
      Job& job = jobs.at(id);
      if (rnd(4) == 0) {
        job.state = JobState::Completed;
        job.shares.clear();
        registry.on_finish(job, jobs);
      } else {
        listed.push_back(static_cast<int>(job.shares.size()));
      }
    }
    std::string diag;
    ASSERT_TRUE(registry.check_consistent(jobs, &diag)) << "round " << round << ": " << diag;
    for (int max_mates = 1; max_mates <= 3; ++max_mates) {
      for (int weight = 1; weight <= 64; ++weight) {
        const bool want = brute_force_sum(listed, weight, max_mates);
        ASSERT_EQ(registry.can_sum_to(weight, max_mates), want)
            << "round " << round << " weight " << weight << " max_mates " << max_mates;
        ++(want ? reachable : unreachable);
      }
    }
  }
  // Both answers are exercised, so neither "always" nor "never" passes.
  EXPECT_GT(reachable, 1000);
  EXPECT_GT(unreachable, 1000);
}

// ---------------------------------------------------------------------------
// Mates hosting a guest, through real NodeManager starts/finishes.
// ---------------------------------------------------------------------------

/// Four 48-core nodes; every lifecycle step goes through the NodeManager
/// first and the registry second, as SdPolicyScheduler sees them.
struct HostingWorld {
  HostingWorld() : machine(make_machine()), mgr(machine, jobs, drom) {}

  static MachineConfig make_machine() {
    MachineConfig mc;
    mc.nodes = 4;
    mc.node = NodeConfig{2, 24};
    return mc;
  }

  JobId start_mate(int node) {
    const JobId id = jobs.add(spec_of(0, 10000, 1, 48));
    jobs.at(id).state = JobState::Running;
    jobs.at(id).predicted_end = 10000;
    mgr.start_static(0, id, {node});
    registry.on_start(jobs.at(id), jobs);
    return id;
  }

  /// A guest taking `cpus` of `mate`'s share on `node`.
  JobId start_guest(JobId mate, int node, int cpus) {
    const JobId id = jobs.add(spec_of(0, 100, 1, 48));
    const int kept = machine.node(node).occupant(mate)->cpus - cpus;
    mgr.start_guest(0, id, {SharePlan{node, mate, cpus, kept, 48}});
    jobs.at(id).state = JobState::Running;
    registry.on_start(jobs.at(id), jobs);
    return id;
  }

  void finish(JobId id) {
    jobs.at(id).state = JobState::Completed;
    mgr.finish_job(100, id);
    registry.on_finish(jobs.at(id), jobs);
  }

  [[nodiscard]] bool consistent() const {
    std::string diag;
    const bool ok = registry.check_consistent(jobs, &diag);
    EXPECT_TRUE(ok) << diag;
    return ok;
  }

  Machine machine;
  JobRegistry jobs;
  DromRegistry drom;
  NodeManager mgr;
  MateRegistry registry;
};

TEST(MateRegistry, FullMateLeavesAndReturnsInIdOrder) {
  HostingWorld world;
  const JobId a = world.start_mate(0);
  const JobId b = world.start_mate(1);
  const JobId c = world.start_mate(2);
  const JobId g = world.start_guest(b, 1, 24);
  EXPECT_EQ(world.registry.mates(), (std::vector<JobId>{a, c}));
  EXPECT_EQ(world.registry.running(), (std::vector<JobId>{a, b, c, g}));
  EXPECT_TRUE(world.consistent());

  world.finish(g);
  EXPECT_EQ(world.registry.mates(), (std::vector<JobId>{a, b, c}));
  EXPECT_EQ(world.registry.running(), (std::vector<JobId>{a, b, c}));
  EXPECT_TRUE(world.consistent());
}

TEST(MateRegistry, MateThatFinishedFirstIsNotRelisted) {
  HostingWorld world;
  const JobId m = world.start_mate(0);
  const JobId other = world.start_mate(1);
  const JobId g = world.start_guest(m, 0, 24);
  world.finish(m);  // the guest outlives its mate
  EXPECT_EQ(world.registry.mates(), (std::vector<JobId>{other}));
  world.finish(g);
  EXPECT_EQ(world.registry.mates(), (std::vector<JobId>{other}));
  EXPECT_TRUE(world.consistent());
}

TEST(MateRegistry, CheckConsistentCatchesAMissedGuestFinish) {
  HostingWorld world;
  const JobId m = world.start_mate(0);
  const JobId g = world.start_guest(m, 0, 24);
  world.jobs.at(g).state = JobState::Completed;
  world.mgr.finish_job(100, g);  // the registry never hears of it
  std::string diag;
  EXPECT_FALSE(world.registry.check_consistent(world.jobs, &diag));
  EXPECT_NE(diag.find("running"), std::string::npos) << diag;

  // Told of the finish but not of the mate it freed: the mate set diverges.
  Job forgetful = world.jobs.at(g);
  forgetful.mates.clear();
  world.registry.on_finish(forgetful, world.jobs);
  EXPECT_FALSE(world.registry.check_consistent(world.jobs, &diag));
  EXPECT_NE(diag.find("mate set"), std::string::npos) << diag;
}

// ---------------------------------------------------------------------------
// Parity: incremental selection == freshly seeded selection over a recorded
// random lifecycle.
// ---------------------------------------------------------------------------

using testing_support::plans_equal;
using testing_support::seeded_select;

TEST(MateRegistry, SelectionParityOverRecordedLifecycle) {
  MachineConfig mc;
  mc.nodes = 12;
  mc.node = NodeConfig{2, 4};
  Machine machine(mc);
  JobRegistry jobs;
  DromRegistry drom;
  NodeManager mgr(machine, jobs, drom);
  ClusterStateIndex index(machine, jobs);

  SdConfig sd;
  MateRegistry registry;
  MateSelector indexed(machine, jobs, sd, registry);
  indexed.set_cluster_index(&index);

  std::uint64_t state = 0x2545f4914f6cdd1dULL;
  const auto rnd = [&state](std::uint64_t bound) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state % bound;
  };
  const auto add_pending = [&](SimTime now, int req_nodes, SimTime req_time) {
    return jobs.add(spec_of(now, req_time, req_nodes, machine.cores_per_node()));
  };

  std::vector<JobId> running;
  SimTime now = 0;
  std::string diag;
  int compared = 0;
  for (int step = 0; step < 300; ++step) {
    now += static_cast<SimTime>(rnd(15));
    const std::uint64_t op = rnd(10);
    if (op < 5) {
      const int want = 1 + static_cast<int>(rnd(3));
      const auto nodes = machine.find_free_nodes(want);
      if (nodes) {
        const auto cls = rnd(4) == 0 ? MalleabilityClass::Rigid : MalleabilityClass::Malleable;
        const JobId id = jobs.add(
            spec_of(now, 50 + static_cast<SimTime>(rnd(500)), want,
                    machine.cores_per_node(), cls));
        Job& job = jobs.at(id);
        job.state = JobState::Running;
        job.start_time = now;
        job.predicted_end = now + job.spec.req_time;
        mgr.start_static(now, id, *nodes);
        registry.on_start(job, jobs);
        running.push_back(id);
      }
    } else if (op < 7 && !running.empty()) {
      const std::size_t pick = rnd(running.size());
      const JobId id = running[pick];
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(pick));
      jobs.at(id).state = JobState::Completed;
      jobs.at(id).end_time = now;
      mgr.finish_job(now, id);
      registry.on_finish(jobs.at(id), jobs);
    } else if (!running.empty()) {
      // Guest start through the selector itself: take the reference plan
      // (parity with the incremental one is asserted below) and apply it.
      const JobId guest_id =
          add_pending(now, 1 + static_cast<int>(rnd(2)), 20 + static_cast<SimTime>(rnd(60)));
      Job& guest = jobs.at(guest_id);
      const auto plan = seeded_select(machine, jobs, index, sd, guest, now, kInf);
      if (plan) {
        guest.state = JobState::Running;
        guest.start_time = now;
        guest.predicted_increase = plan->guest_increase;
        guest.predicted_end = now + guest.spec.req_time + plan->guest_increase;
        for (std::size_t i = 0; i < plan->mates.size(); ++i) {
          Job& mate = jobs.at(plan->mates[i]);
          mate.predicted_increase += plan->mate_increases[i];
          mate.predicted_end += plan->mate_increases[i];
          index.on_predicted_end_changed(plan->mates[i]);
        }
        mgr.start_guest(now, guest_id, plan->nodes);
        registry.on_start(guest, jobs);
        running.push_back(guest_id);
      }
    }

    ASSERT_TRUE(registry.check_consistent(jobs, &diag)) << "step " << step << ": " << diag;
    MateRegistry seeded;
    seeded.seed(jobs);
    ASSERT_EQ(registry.running(), seeded.running()) << "step " << step;
    ASSERT_EQ(registry.mates(), seeded.mates()) << "step " << step;

    // Probe guests of several shapes: both selectors must agree exactly.
    for (const int req_nodes : {1, 2, 3}) {
      const JobId probe = add_pending(now, req_nodes, 30);
      const Job& guest = jobs.at(probe);
      for (const double cutoff : {kInf, 5.0}) {
        const auto a = seeded_select(machine, jobs, index, sd, guest, now, cutoff);
        const auto b = indexed.select(guest, now, cutoff);
        ASSERT_TRUE(plans_equal(a, b))
            << "step " << step << " req_nodes " << req_nodes << " cutoff " << cutoff;
        if (a) ++compared;
      }
    }
  }
  EXPECT_GT(compared, 0);  // the walk actually produced plans to compare
}

}  // namespace
}  // namespace sdsched

#include "core/mate_selector.h"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "../scoped_env.h"
#include "cluster/cluster_state_index.h"
#include "core/mate_registry.h"
#include "drom/node_manager.h"
#include "mate_plan_parity.h"

namespace sdsched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

class MateSelectorTest : public ::testing::Test {
 protected:
  MateSelectorTest()
      : machine_(make_config()),
        index_(machine_, jobs_),
        mgr_(machine_, jobs_, drom_),
        selector_(selector_for(sd_)) {}

  /// A selector over the fixture's registry and index.
  MateSelector selector_for(const SdConfig& config) {
    MateSelector selector(machine_, jobs_, config, registry_);
    selector.set_cluster_index(&index_);
    return selector;
  }

  /// Mark `id` running and tell the registry (the scheduler's start hook,
  /// which runs after the placement has written the job's shares).
  void mark_running(JobId id) {
    jobs_.at(id).state = JobState::Running;
    registry_.on_start(jobs_.at(id), jobs_);
  }

  static MachineConfig make_config() {
    MachineConfig config;
    config.nodes = 8;
    config.node = NodeConfig{2, 24};
    return config;
  }

  /// A running mate started at `start`, holding `nodes` full nodes.
  JobId run_mate(int nodes, SimTime start, SimTime req_time, SimTime submit = 0) {
    JobSpec spec;
    spec.submit = submit;
    spec.req_time = req_time;
    spec.base_runtime = req_time;
    spec.req_cpus = nodes * 48;
    spec.req_nodes = nodes;
    const JobId id = jobs_.add(spec);
    Job& job = jobs_.at(id);
    job.start_time = start;
    job.predicted_end = start + req_time;
    const auto free = machine_.find_free_nodes(nodes);
    mgr_.start_static(start, id, *free);
    mark_running(id);
    return id;
  }

  /// A pending guest requesting `nodes` full nodes.
  Job& pending_guest(int nodes, SimTime req_time, SimTime submit = 0) {
    JobSpec spec;
    spec.submit = submit;
    spec.req_time = req_time;
    spec.base_runtime = req_time;
    spec.req_cpus = nodes * 48;
    spec.req_nodes = nodes;
    const JobId id = jobs_.add(spec);
    return jobs_.at(id);
  }

  /// A rigid running job on `nodes` free nodes: never a mate itself, so a
  /// select only reads it through the nodes it occupies.
  JobId run_rigid(int nodes, SimTime req_time) {
    JobSpec spec;
    spec.req_time = req_time;
    spec.base_runtime = req_time;
    spec.req_cpus = nodes * 48;
    spec.req_nodes = nodes;
    spec.malleability = MalleabilityClass::Rigid;
    const JobId id = jobs_.add(spec);
    jobs_.at(id).predicted_end = req_time;
    mgr_.start_static(0, id, *machine_.find_free_nodes(nodes));
    mark_running(id);
    return id;
  }

  /// What a cold selector over a freshly seeded registry finds.
  std::optional<MatePlan> seeded_plan(const Job& guest, SimTime now) {
    return testing_support::seeded_select(machine_, jobs_, index_, sd_, guest, now, kInf);
  }

  Machine machine_;
  JobRegistry jobs_;
  ClusterStateIndex index_;
  DromRegistry drom_;
  NodeManager mgr_;
  SdConfig sd_;
  MateRegistry registry_;
  MateSelector selector_;
};

TEST_F(MateSelectorTest, SelectsSingleMatchingMate) {
  const JobId mate = run_mate(2, 0, 10000);
  Job& guest = pending_guest(2, 1000);
  const auto plan = selector_.select(guest, 100, kInf);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->mates, (std::vector<JobId>{mate}));
  ASSERT_EQ(plan->nodes.size(), 2u);
  // SharingFactor 0.5 on 48-core nodes: guest gets 24, mate keeps 24.
  for (const auto& entry : plan->nodes) {
    EXPECT_EQ(entry.guest_cpus, 24);
    EXPECT_EQ(entry.mate_kept_cpus, 24);
    EXPECT_EQ(entry.guest_static_cpus, 48);
  }
  // Guest at rate 0.5 -> increase == req_time (doubling).
  EXPECT_EQ(plan->guest_increase, 1000);
  EXPECT_EQ(plan->guest_duration, 2000);
}

TEST_F(MateSelectorTest, WeightConstraintIsExact) {
  run_mate(3, 0, 10000);  // w=3 cannot serve W=2
  Job& guest = pending_guest(2, 100);
  EXPECT_FALSE(selector_.select(guest, 0, kInf).has_value());
}

TEST_F(MateSelectorTest, TwoMatesCombineToMatchWeight) {
  const JobId m1 = run_mate(1, 0, 10000);
  const JobId m2 = run_mate(2, 0, 10000);
  Job& guest = pending_guest(3, 500);
  const auto plan = selector_.select(guest, 0, kInf);
  ASSERT_TRUE(plan.has_value());
  std::vector<JobId> mates = plan->mates;
  std::sort(mates.begin(), mates.end());
  EXPECT_EQ(mates, (std::vector<JobId>{m1, m2}));
  EXPECT_EQ(plan->nodes.size(), 3u);
}

TEST_F(MateSelectorTest, MaxMatesLimitsCombination) {
  run_mate(1, 0, 10000);
  run_mate(1, 0, 10000);
  run_mate(1, 0, 10000);
  Job& guest = pending_guest(3, 100);
  // m=2 (default): cannot assemble 3 nodes from three 1-node mates.
  EXPECT_FALSE(selector_.select(guest, 0, kInf).has_value());

  SdConfig wide = sd_;
  wide.max_mates = 3;
  const MateSelector wide_selector = selector_for(wide);
  EXPECT_TRUE(wide_selector.select(guest, 0, kInf).has_value());
}

TEST_F(MateSelectorTest, PrefersLowerPenaltyMate) {
  // Two eligible 2-node mates; the one that waited less has lower penalty
  // (Eq. 4) and must be chosen.
  const JobId waited_long = run_mate(2, 1000, 10000, /*submit=*/0);
  const JobId waited_short = run_mate(2, 1000, 10000, /*submit=*/990);
  Job& guest = pending_guest(2, 500);
  const auto plan = selector_.select(guest, 1500, kInf);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->mates, (std::vector<JobId>{waited_short}));
  (void)waited_long;
}

TEST_F(MateSelectorTest, CutoffFiltersPenalizedMates) {
  // Mate that already waited 9x its requested time: penalty ~ >10.
  run_mate(2, 9000, 1000, /*submit=*/0);
  Job& guest = pending_guest(2, 100);
  EXPECT_FALSE(selector_.select(guest, 9000, 5.0).has_value());
  EXPECT_TRUE(selector_.select(guest, 9000, kInf).has_value());
}

TEST_F(MateSelectorTest, GuestMustFinishInsideMateAllocation) {
  // Mate has only 500s left; guest needs ~2000s shrunk -> infeasible.
  run_mate(2, 0, 500);
  Job& guest = pending_guest(2, 1000);
  EXPECT_FALSE(selector_.select(guest, 0, kInf).has_value());
}

TEST_F(MateSelectorTest, RigidJobsAreNotMates) {
  JobSpec spec;
  spec.req_time = 10000;
  spec.base_runtime = 10000;
  spec.req_cpus = 96;
  spec.req_nodes = 2;
  spec.malleability = MalleabilityClass::Rigid;
  const JobId id = jobs_.add(spec);
  jobs_.at(id).predicted_end = 10000;
  mgr_.start_static(0, id, *machine_.find_free_nodes(2));
  mark_running(id);

  Job& guest = pending_guest(2, 100);
  EXPECT_FALSE(selector_.select(guest, 0, kInf).has_value());
}

TEST_F(MateSelectorTest, BusyMatesWithGuestsAreIneligible) {
  run_mate(2, 0, 10000);
  // A real guest start fills the mate (one owner + one guest per node).
  const JobId hosted = pending_guest(2, 100).spec.id;
  const auto first = selector_.select(jobs_.at(hosted), 0, kInf);
  ASSERT_TRUE(first.has_value());
  mgr_.start_guest(0, hosted, first->nodes);
  mark_running(hosted);
  Job& guest = pending_guest(2, 100);
  EXPECT_FALSE(selector_.select(guest, 0, kInf).has_value());
}

TEST_F(MateSelectorTest, ExGuestsAreIneligible) {
  Job& ex_guest = pending_guest(2, 10000);
  ex_guest.predicted_end = 10000;
  ex_guest.started_as_guest = true;  // before the registry hears the start
  const JobId mate = ex_guest.spec.id;
  mgr_.start_static(0, mate, *machine_.find_free_nodes(2));
  mark_running(mate);
  Job& guest = pending_guest(2, 100);
  EXPECT_FALSE(selector_.select(guest, 0, kInf).has_value());
}

TEST_F(MateSelectorTest, RankFloorBlocksOverShrink) {
  // Mate runs pure-MPI-ish: 30 ranks per node. SharingFactor would take 24,
  // leaving 24 < 30 -> only 18 can go to the guest; still feasible.
  JobSpec spec;
  spec.req_time = 10000;
  spec.base_runtime = 10000;
  spec.req_cpus = 96;
  spec.req_nodes = 2;
  spec.ranks_per_node = 30;
  const JobId id = jobs_.add(spec);
  jobs_.at(id).predicted_end = 10000;
  mgr_.start_static(0, id, *machine_.find_free_nodes(2));
  mark_running(id);

  Job& guest = pending_guest(2, 100);
  const auto plan = selector_.select(guest, 0, kInf);
  ASSERT_TRUE(plan.has_value());
  for (const auto& entry : plan->nodes) {
    EXPECT_EQ(entry.mate_kept_cpus, 30);
    EXPECT_EQ(entry.guest_cpus, 18);
  }
}

TEST_F(MateSelectorTest, MinimizesPerformanceImpactAcrossCombinations) {
  // W=2 can be served by one 2-node mate (penalty p) or two 1-node mates
  // (penalty ~2p): the single mate must win.
  const JobId two_node = run_mate(2, 100, 10000, 0);
  run_mate(1, 100, 10000, 0);
  run_mate(1, 100, 10000, 0);
  Job& guest = pending_guest(2, 500);
  const auto plan = selector_.select(guest, 200, kInf);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->mates, (std::vector<JobId>{two_node}));
}

TEST_F(MateSelectorTest, FreeNodesReduceMateCount) {
  SdConfig with_free = sd_;
  with_free.include_free_nodes = true;
  const MateSelector free_selector = selector_for(with_free);

  run_mate(2, 0, 10000);  // leaves 6 nodes free
  Job& guest = pending_guest(3, 500);
  // Without free nodes: no combination sums to 3.
  EXPECT_FALSE(selector_.select(guest, 0, kInf, 0).has_value());
  // With free nodes: 2 free + ... no; 1 mate (w=2) + 1 free = 3. Feasible.
  const auto plan = free_selector.select(guest, 0, kInf, 6);
  ASSERT_TRUE(plan.has_value());
  int free_entries = 0;
  for (const auto& entry : plan->nodes) {
    if (entry.mate == kInvalidJob) {
      ++free_entries;
      EXPECT_EQ(entry.guest_cpus, 48);  // full node for the guest
    }
  }
  EXPECT_EQ(free_entries, 1);
}

TEST_F(MateSelectorTest, GuestIncreaseUsesWorstCaseRate) {
  // Guest on 1 node, SharingFactor 0.5: rate 0.5 -> duration doubles.
  run_mate(1, 0, 100000);
  Job& guest = pending_guest(1, 700);
  const auto plan = selector_.select(guest, 0, kInf);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->guest_increase, 700);
  // Mate increase: (1 - 0.5) * guest_duration = 700.
  ASSERT_EQ(plan->mate_increases.size(), 1u);
  EXPECT_EQ(plan->mate_increases[0], 700);
}

TEST_F(MateSelectorTest, SelectWithoutClusterIndexThrows) {
  run_mate(2, 0, 10000);
  const MateSelector detached(machine_, jobs_, sd_, registry_);
  EXPECT_THROW((void)detached.select(pending_guest(2, 100), 0, kInf), std::logic_error);
}

// A mate's budgets are a function of its static split, so starts and
// finishes on nodes it does not hold leave its plans as a cold selector
// finds them.
TEST_F(MateSelectorTest, UnrelatedMutationsLeaveMatePlansCold) {
  run_mate(2, 0, 10000);  // nodes 0-1
  Job& guest = pending_guest(2, 100);
  ASSERT_TRUE(selector_.select(guest, 0, kInf).has_value());

  // A start on nodes the mate does not hold moves the mutation serial.
  const JobId other = run_rigid(2, 5000);  // nodes 2-3
  const JobId probe1 = pending_guest(2, 100).spec.id;
  const auto warm1 = selector_.select(jobs_.at(probe1), 10, kInf);
  ASSERT_TRUE(warm1.has_value());
  EXPECT_TRUE(testing_support::plans_equal(warm1, seeded_plan(jobs_.at(probe1), 10)));

  // So does its finish.
  jobs_.at(other).state = JobState::Completed;
  mgr_.finish_job(20, other);
  registry_.on_finish(jobs_.at(other), jobs_);
  const JobId probe2 = pending_guest(2, 100).spec.id;
  const auto warm2 = selector_.select(jobs_.at(probe2), 20, kInf);
  ASSERT_TRUE(warm2.has_value());
  EXPECT_TRUE(testing_support::plans_equal(warm2, seeded_plan(jobs_.at(probe2), 20)));
}

TEST_F(MateSelectorTest, CrosscheckCatchesAMateOffItsStaticSplit) {
  // The switch is read once per index, so this test builds its own.
  const testing_support::ScopedEnv on("SDSCHED_CROSSCHECK", "1");
  ClusterStateIndex checked(machine_, jobs_);
  MateSelector selector(machine_, jobs_, sd_, registry_);
  selector.set_cluster_index(&checked);

  const JobId mate = run_mate(1, 0, 10000);  // node 0
  const JobId first = pending_guest(1, 100).spec.id;
  ASSERT_TRUE(selector.select(jobs_.at(first), 0, kInf).has_value());

  // A resize no run makes: a listed mate hosts no guest, so its share never
  // moves while it is listed. The mate's node gains free cores the closed
  // form does not see.
  ASSERT_TRUE(machine_.resize_share(0, mate, 0, 40));

  const JobId second = pending_guest(1, 100).spec.id;
  try {
    (void)selector.select(jobs_.at(second), 0, kInf);
    FAIL() << "a mate off its static split went unnoticed";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("off its static split: job " + std::to_string(mate) + " node 0"),
              std::string::npos)
        << what;
  }
}

// A listed mate hosts no guest, so whenever it is examined it is alone on
// its nodes at its static split. Hosting a guest takes it out of mates(),
// and the guest's finish gives it its split back: the budgets before the
// guest are the budgets after it.
TEST_F(MateSelectorTest, ListedMateBudgetsOutliveItsGuest) {
  const testing_support::ScopedEnv on("SDSCHED_CROSSCHECK", "1");
  ClusterStateIndex checked(machine_, jobs_);
  MateSelector selector(machine_, jobs_, sd_, registry_);
  selector.set_cluster_index(&checked);

  const JobId mate = run_mate(1, 0, 10000);  // node 0
  const JobId guest = pending_guest(1, 100).spec.id;
  const auto plan = selector.select(jobs_.at(guest), 0, kInf);
  ASSERT_TRUE(plan.has_value());

  // The guest starts on the mate, which leaves mates() while it hosts it.
  Job& hosted = jobs_.at(guest);
  hosted.start_time = 0;
  hosted.predicted_end = hosted.spec.req_time + plan->guest_increase;
  jobs_.at(mate).predicted_end += plan->mate_increases.front();
  checked.on_predicted_end_changed(mate);
  mgr_.start_guest(0, guest, plan->nodes);
  mark_running(guest);
  EXPECT_TRUE(registry_.mates().empty());

  // The guest finishes: the mate expands back and is listed again.
  hosted.state = JobState::Completed;
  hosted.end_time = 50;
  mgr_.finish_job(50, guest);
  registry_.on_finish(hosted, jobs_);
  ASSERT_EQ(registry_.mates(), (std::vector<JobId>{mate}));

  // The next select passes the crosscheck's static-split invariant and
  // plans what a cold selector finds.
  const JobId probe = pending_guest(1, 100).spec.id;
  std::optional<MatePlan> warm;
  ASSERT_NO_THROW(warm = selector.select(jobs_.at(probe), 50, kInf));
  ASSERT_TRUE(warm.has_value());
  EXPECT_TRUE(testing_support::plans_equal(
      warm, testing_support::seeded_select(machine_, jobs_, checked, sd_, jobs_.at(probe), 50,
                                           kInf)));
}

// A mate's quick penalty takes the worst kept/static ratio over both of
// its split values. Mate A holds 25 + 24 cpus, mate B 24 + 24: a 96-cpu
// guest leaves each mate one cpu per node, so A keeps 1/25 on its wider
// node and B 1/24 everywhere. That costs A 20 s more quick increase
// (11,520 vs 11,500 s of the 12,000 s estimate) than its 10 s shorter wait
// saves, so with one candidate kept, B is the one.
TEST_F(MateSelectorTest, QuickPenaltyTakesAnUnevenMatesWorstSplit) {
  SdConfig top1 = sd_;
  top1.max_candidates = 1;
  const MateSelector selector = selector_for(top1);
  const auto run_split = [&](int req_cpus, SimTime start) {
    JobSpec spec;
    spec.req_time = 100000;
    spec.base_runtime = spec.req_time;
    spec.req_cpus = req_cpus;
    spec.req_nodes = 2;
    const JobId id = jobs_.add(spec);
    jobs_.at(id).start_time = start;
    jobs_.at(id).predicted_end = start + spec.req_time;
    mgr_.start_static(start, id, *machine_.find_free_nodes(2));
    mark_running(id);
    return id;
  };
  run_split(49, 0);                   // A: wait 0
  const JobId b = run_split(48, 10);  // B: wait 10
  const auto plan = selector.select(pending_guest(2, 6000), 100, kInf);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->mates, (std::vector<JobId>{b}));
  for (const SharePlan& entry : plan->nodes) {
    EXPECT_EQ(entry.guest_cpus, 47);
    EXPECT_EQ(entry.mate_kept_cpus, 1);
  }
}

TEST_F(MateSelectorTest, WeightRejectionHonoursFreeNodeTargets) {
  // One 2-node mate and a 3-node guest: W = 3 alone is out of reach, but
  // each free node the guest may borrow lowers the mates' target to W - f.
  SdConfig with_free = sd_;
  with_free.include_free_nodes = true;
  const MateSelector free_selector = selector_for(with_free);
  run_mate(2, 0, 10000);  // leaves 6 nodes free
  Job& guest = pending_guest(3, 500);

  // Targets {3}: rejected before any candidate is scanned.
  EXPECT_FALSE(free_selector.select(guest, 0, kInf, 0).has_value());
  EXPECT_EQ(free_selector.stats().weight_rejections, 1u);
  EXPECT_EQ(free_selector.stats().candidates_scanned, 0u);
  EXPECT_FALSE(free_selector.last_scan().truncated);

  // Targets {3, 2}: the 2-node mate plus one free node.
  const auto plan = free_selector.select(guest, 0, kInf, 1);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(free_selector.stats().weight_rejections, 1u);
  EXPECT_EQ(free_selector.stats().candidates_scanned, 1u);

  // Targets {3, 2, 1}: still reached through W - 1 = 2, and the search
  // prefers the same plan (f = 2 would need a 1-node mate).
  const auto wide = free_selector.select(guest, 0, kInf, 6);
  ASSERT_TRUE(wide.has_value());
  EXPECT_EQ(wide->mates, plan->mates);
  EXPECT_EQ(free_selector.stats().weight_rejections, 1u);

  // Without the include_free_nodes option the allowance is ignored.
  EXPECT_FALSE(selector_.select(guest, 0, kInf, 6).has_value());
  EXPECT_EQ(selector_.stats().weight_rejections, 1u);
  EXPECT_EQ(selector_.stats().candidates_scanned, 0u);
}

TEST_F(MateSelectorTest, CrosscheckCatchesAWrongWeightRejection) {
  // The switch is read once per index, so this test builds its own.
  const testing_support::ScopedEnv on("SDSCHED_CROSSCHECK", "1");
  ClusterStateIndex checked(machine_, jobs_);
  MateSelector selector(machine_, jobs_, sd_, registry_);
  selector.set_cluster_index(&checked);

  // The registry lists a mate before its placement writes its shares, so
  // the histogram files it under node count 0 and no weight reaches 2.
  JobSpec spec;
  spec.req_time = 10000;
  spec.base_runtime = 10000;
  spec.req_cpus = 96;
  spec.req_nodes = 2;
  const JobId mate = jobs_.add(spec);
  jobs_.at(mate).predicted_end = 10000;
  mark_running(mate);
  mgr_.start_static(0, mate, *machine_.find_free_nodes(2));
  ASSERT_FALSE(registry_.can_sum_to(2, sd_.max_mates));

  const Job& guest = pending_guest(2, 100);
  try {
    (void)selector.select(guest, 7, kInf);
    FAIL() << "a weight rejection that hid a plan went unnoticed";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("job " + std::to_string(guest.spec.id) + " at t=7"), std::string::npos)
        << what;
  }
}

TEST_F(MateSelectorTest, PendingJobsNeverSelected) {
  Job& other = pending_guest(2, 1000);  // pending, same size
  (void)other;
  Job& guest = pending_guest(2, 100);
  EXPECT_FALSE(selector_.select(guest, 0, kInf).has_value());
}

}  // namespace
}  // namespace sdsched

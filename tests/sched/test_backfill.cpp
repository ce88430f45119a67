#include "sched/backfill.h"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "../scoped_env.h"
#include "scheduler_test_harness.h"

namespace sdsched {
namespace {

using testing_support::RecordingExecutor;
using testing_support::finish;
using testing_support::spec_of;

class BackfillTest : public ::testing::Test {
 protected:
  explicit BackfillTest(SchedConfig config = {})
      : machine_(make_config()),
        mgr_(machine_, jobs_, drom_),
        executor_(machine_, jobs_, mgr_),
        sched_(machine_, jobs_, executor_, config) {
    sched_.set_cluster_index(&executor_.index);
  }

  static MachineConfig make_config() {
    MachineConfig config;
    config.nodes = 4;
    config.node = NodeConfig{2, 24};
    return config;
  }

  JobId submit(int cpus, SimTime runtime, SimTime req_time, SimTime submit_time = 0) {
    const JobId id = jobs_.add(spec_of(submit_time, runtime, req_time, cpus, 48));
    sched_.on_submit(id);
    return id;
  }

  Machine machine_;
  JobRegistry jobs_;
  DromRegistry drom_;
  NodeManager mgr_;
  RecordingExecutor executor_;
  BackfillScheduler sched_;
};

TEST_F(BackfillTest, ShortJobBackfillsAroundBlockedHead) {
  // 4-node machine. A (2 nodes, 100s) runs; B (4 nodes) must wait for A;
  // C (2 nodes, 50s <= A's remaining) fits in B's shadow on the spare nodes.
  const JobId a = submit(96, 100, 100);
  sched_.schedule_pass(0);
  ASSERT_EQ(executor_.static_starts, (std::vector<JobId>{a}));

  const JobId b = submit(192, 100, 100);
  const JobId c = submit(96, 50, 50);
  sched_.schedule_pass(0);
  EXPECT_EQ(executor_.static_starts, (std::vector<JobId>{a, c}));
  EXPECT_TRUE(sched_.queue().contains(b));
}

TEST_F(BackfillTest, BackfillNeverDelaysReservation) {
  // C too long to fit in the shadow: would push B past its reservation.
  const JobId a = submit(96, 100, 100);
  sched_.schedule_pass(0);
  const JobId b = submit(192, 100, 100);
  const JobId c = submit(96, 150, 150);
  sched_.schedule_pass(0);
  EXPECT_EQ(executor_.static_starts, (std::vector<JobId>{a}));
  EXPECT_TRUE(sched_.queue().contains(b));
  EXPECT_TRUE(sched_.queue().contains(c));
}

TEST_F(BackfillTest, ReservationHonoursPredictedEnds) {
  const JobId a = submit(192, 80, 100);  // requested 100, really 80
  sched_.schedule_pass(0);
  const JobId b = submit(192, 50, 50);
  sched_.schedule_pass(0);
  EXPECT_TRUE(sched_.queue().contains(b));
  // A finishes early; the pass at that moment starts B immediately.
  finish(jobs_, mgr_, a, 80);
  executor_.now = 80;
  sched_.schedule_pass(80);
  EXPECT_EQ(executor_.static_starts, (std::vector<JobId>{a, b}));
}

TEST_F(BackfillTest, PriorityOrderPreservedAmongEqualJobs) {
  const JobId a = submit(192, 100, 100);
  sched_.schedule_pass(0);
  const JobId b = submit(96, 60, 60, 1);
  const JobId c = submit(96, 60, 60, 2);
  sched_.schedule_pass(2);
  EXPECT_TRUE(sched_.queue().contains(b));
  EXPECT_TRUE(sched_.queue().contains(c));
  // Both fit once the big job ends; starts must follow submit order.
  finish(jobs_, mgr_, a, 100);
  executor_.now = 100;
  sched_.schedule_pass(100);
  EXPECT_EQ(executor_.static_starts, (std::vector<JobId>{a, b, c}));
}

TEST_F(BackfillTest, StaticPolicyNeverStartsGuests) {
  submit(192, 1000, 1000);
  sched_.schedule_pass(0);
  submit(96, 10, 10);
  sched_.schedule_pass(0);
  EXPECT_TRUE(executor_.guest_starts.empty());
}

TEST_F(BackfillTest, SharedNodeFreesAtLastOccupant) {
  // Simulate an SD-produced sharing situation and check the profile treats
  // the node as busy until the later predicted end.
  const JobId a = submit(96, 200, 200);
  sched_.schedule_pass(0);
  // Manually co-schedule a guest with a longer predicted end on node 0.
  const JobId g = jobs_.add(spec_of(0, 300, 300, 48, 48));
  Job& guest = jobs_.at(g);
  guest.state = JobState::Running;
  guest.start_time = 0;
  guest.predicted_end = 300;
  machine_.resize_share(0, a, 0, 24);
  jobs_.at(a).shares[0].cpus = 24;
  machine_.add_share(0, g, 0, 24);
  guest.shares.push_back({0, 24, 48});

  // A 4-node job can only be predicted to start when node 0 clears at 300.
  const JobId big = submit(192, 10, 10);
  sched_.schedule_pass(0);
  EXPECT_TRUE(sched_.queue().contains(big));
  finish(jobs_, mgr_, a, 200);
  executor_.now = 200;
  sched_.schedule_pass(200);
  EXPECT_TRUE(sched_.queue().contains(big));  // node 0 still held by guest
  finish(jobs_, mgr_, g, 300);
  executor_.now = 300;
  sched_.schedule_pass(300);
  EXPECT_FALSE(sched_.queue().contains(big));
}

class EasyBackfillTest : public BackfillTest {
 protected:
  EasyBackfillTest() : BackfillTest(easy_config()) {}
  static SchedConfig easy_config() {
    SchedConfig config;
    config.reservation_depth = 1;  // EASY: only the head gets a reservation
    return config;
  }
};

TEST_F(EasyBackfillTest, DepthOneOnlyProtectsHead) {
  // Machine: 4 nodes. A (3 nodes, 100s) runs. Queue: B (4 nodes, reserved
  // at 100), C (2 nodes, 200s) does not fit in the shadow, D (1 node,
  // 1000s). With depth 1, C gets no reservation, so D may start on the
  // spare node even though it delays *C* (but not B... D uses 1 node, B
  // needs all 4 at t=100 -> D would delay B; it must not start).
  const JobId a = submit(144, 100, 100);
  sched_.schedule_pass(0);
  ASSERT_EQ(executor_.static_starts, (std::vector<JobId>{a}));
  const JobId b = submit(192, 100, 100);
  const JobId c = submit(96, 200, 200);
  const JobId d = submit(48, 50, 50);
  sched_.schedule_pass(0);
  // D fits under B's shadow (50 <= 100) on the spare node; C does not.
  EXPECT_TRUE(sched_.queue().contains(b));
  EXPECT_TRUE(sched_.queue().contains(c));
  EXPECT_EQ(executor_.static_starts, (std::vector<JobId>{a, d}));
}

// Constraint-class-aware estimates: a constrained job whose eligible nodes are busy gets an exact earliest
// start from the per-class profile layer (a reservation at the eligible
// release) instead of the historical conservative hold-at-now — so
// unconstrained work is no longer blocked behind it.
class ConstrainedBackfillTest : public ::testing::Test {
 protected:
  ConstrainedBackfillTest()
      : machine_(make_config()),
        mgr_(machine_, jobs_, drom_),
        executor_(machine_, jobs_, mgr_),
        sched_(machine_, jobs_, executor_, SchedConfig{}) {
    sched_.set_cluster_index(&executor_.index);
  }

  static MachineConfig make_config() {
    MachineConfig config;
    config.nodes = 4;
    config.node = NodeConfig{2, 24};
    NodeAttributes highmem;
    highmem.memory_gb = 384;
    config.attribute_overrides.emplace_back(2, highmem);
    config.attribute_overrides.emplace_back(3, highmem);
    return config;
  }

  JobId submit(int cpus, SimTime req_time, int min_memory_gb = 0, SimTime submit_time = 0) {
    JobSpec spec = spec_of(submit_time, req_time, req_time, cpus, 48);
    spec.constraints.min_memory_gb = min_memory_gb;
    const JobId id = jobs_.add(spec);
    sched_.on_submit(id);
    return id;
  }

  Machine machine_;
  JobRegistry jobs_;
  DromRegistry drom_;
  NodeManager mgr_;
  RecordingExecutor executor_;
  BackfillScheduler sched_;
};

TEST_F(ConstrainedBackfillTest, ClassLayerReplacesHoldAndRetry) {
  // A (highmem, 2 nodes, 100s) takes the two highmem nodes.
  const JobId a = submit(96, 100, /*min_memory_gb=*/128);
  sched_.schedule_pass(0);
  ASSERT_EQ(executor_.static_starts, (std::vector<JobId>{a}));
  EXPECT_EQ(jobs_.at(a).shares[0].node, 2);
  EXPECT_GT(sched_.class_layer_builds(), 0u);

  // B (highmem, 2 nodes): the class-blind profile sees 2 free nodes *now*,
  // but they are the wrong class. The class layer prices B at A's release
  // (t=100) — a plain reservation there, not a hold of [now, now+500).
  const JobId b = submit(96, 500, /*min_memory_gb=*/128, /*submit_time=*/10);
  // C (unconstrained, 2 nodes, 50s): fits on the default-class nodes now
  // and ends before B's reservation. Under the historical hold-and-retry
  // B's conservative hold would have blocked it.
  const JobId c = submit(96, 50, /*min_memory_gb=*/0, /*submit_time=*/10);
  executor_.now = 10;
  sched_.schedule_pass(10);
  EXPECT_TRUE(sched_.queue().contains(b));
  EXPECT_EQ(executor_.static_starts, (std::vector<JobId>{a, c}));

  // A finishes: B starts on the released highmem nodes.
  finish(jobs_, mgr_, a, 100);
  sched_.on_finish(a);
  executor_.now = 100;
  sched_.schedule_pass(100);
  EXPECT_EQ(executor_.static_starts, (std::vector<JobId>{a, c, b}));
  EXPECT_EQ(jobs_.at(b).shares[0].node, 2);
}

TEST_F(ConstrainedBackfillTest, ClassLayerDoesNotDelayEligibleStarts) {
  // Highmem nodes free: a highmem job starts immediately through the same
  // path (the layer agrees with the shared profile at `now`).
  const JobId a = submit(96, 100, /*min_memory_gb=*/128);
  sched_.schedule_pass(0);
  EXPECT_EQ(executor_.static_starts, (std::vector<JobId>{a}));
}

TEST_F(ConstrainedBackfillTest, SamePassStartsAreNotDoubleCountedByTheLayer) {
  // X (unconstrained, 2 nodes) starts on the default nodes earlier in the
  // SAME pass as B (highmem, 2 nodes). X's start is visible to the layer
  // twice over if mishandled: once through the index snapshot (its nodes
  // are busy by the time the layer is built) and once through a replay of
  // its start reservation. B's eligible nodes are entirely free — it must
  // start in the same pass, as it always did before the layer existed.
  const JobId x = submit(96, 100);
  const JobId b = submit(96, 100, /*min_memory_gb=*/128);
  sched_.schedule_pass(0);
  EXPECT_EQ(executor_.static_starts, (std::vector<JobId>{x, b}));
  EXPECT_EQ(jobs_.at(b).shares[0].node, 2);
}

TEST_F(BackfillTest, ExaminationBudgetBoundsPassWork) {
  SchedConfig tight;
  tight.bf_max_jobs = 1;
  BackfillScheduler limited(machine_, jobs_, executor_, tight);
  limited.set_cluster_index(&executor_.index);
  const JobId a = jobs_.add(spec_of(0, 100, 100, 192, 48));
  limited.on_submit(a);
  const JobId b = jobs_.add(spec_of(0, 10, 10, 48, 48));
  limited.on_submit(b);
  limited.schedule_pass(0);
  // Only the first queued job is examined; b stays even though it fits.
  EXPECT_EQ(executor_.static_starts, (std::vector<JobId>{a}));
  EXPECT_TRUE(limited.queue().contains(b));
}

// Every pass reads the cluster index; there is no machine-scan fallback.
TEST_F(BackfillTest, PassWithoutClusterIndexThrows) {
  BackfillScheduler detached(machine_, jobs_, executor_, SchedConfig{});
  EXPECT_THROW(detached.schedule_pass(0), std::logic_error);
  detached.on_submit(jobs_.add(spec_of(0, 10, 10, 48, 48)));
  EXPECT_THROW(detached.schedule_pass(0), std::logic_error);
  EXPECT_TRUE(executor_.static_starts.empty());
}

// With SDSCHED_CROSSCHECK on, every pass first checks the cluster index
// against the machine scan: a pass over a stale index throws instead of
// deciding on state the machine no longer has.
TEST(BackfillCrosscheck, PassOverStaleIndexThrows) {
  const testing_support::ScopedEnv on("SDSCHED_CROSSCHECK", "1");
  MachineConfig config;
  config.nodes = 4;
  config.node = NodeConfig{2, 24};
  Machine machine(config);
  JobRegistry jobs;
  DromRegistry drom;
  NodeManager mgr(machine, jobs, drom);
  RecordingExecutor executor(machine, jobs, mgr);
  ASSERT_TRUE(executor.index.crosscheck());
  BackfillScheduler sched(machine, jobs, executor, SchedConfig{});
  sched.set_cluster_index(&executor.index);

  const JobId a = jobs.add(spec_of(0, 100, 100, 48, 48));
  sched.on_submit(a);
  ASSERT_NO_THROW(sched.schedule_pass(0));
  EXPECT_EQ(executor.static_starts, (std::vector<JobId>{a}));

  // Occupy a node while the index is detached, then reattach it stale.
  machine.set_observer(nullptr);
  executor.start_static(jobs.add(spec_of(0, 100, 100, 48, 48)), {1});
  machine.set_observer(&executor.index);

  sched.on_submit(jobs.add(spec_of(1, 10, 10, 48, 48)));
  EXPECT_THROW(sched.schedule_pass(1), std::logic_error);
}

// Quiet-pass skip: a pass that would repeat a pass which started, cancelled
// and held nothing returns at once. The rig pins SDSCHED_CROSSCHECK before
// the index reads it, since the crosscheck runs every would-be-skipped pass.
// `Sched` lets a test substitute a policy hook.
template <class Sched = BackfillScheduler>
struct QuietPassRig {
  explicit QuietPassRig(std::optional<std::string> crosscheck = std::nullopt,
                        const MachineConfig& config = four_nodes())
      : env("SDSCHED_CROSSCHECK", std::move(crosscheck)),
        machine(config),
        mgr(machine, jobs, drom),
        executor(machine, jobs, mgr),
        sched(machine, jobs, executor, SchedConfig{}) {
    sched.set_cluster_index(&executor.index);
  }

  static MachineConfig four_nodes() {
    MachineConfig config;
    config.nodes = 4;
    config.node = NodeConfig{2, 24};
    return config;
  }

  JobId submit(int cpus, SimTime runtime, SimTime req_time, SimTime submit_time = 0) {
    const JobId id = jobs.add(spec_of(submit_time, runtime, req_time, cpus, 48));
    sched.on_submit(id);
    return id;
  }

  void pass(SimTime now) {
    executor.now = now;
    sched.schedule_pass(now);
  }

  /// A (2 nodes, really `a_runtime`s of a 100s request) runs; B (4 nodes)
  /// waits for its reservation at t=100, so the pass at t=0 is quiet.
  void run_quiet_pass(SimTime a_runtime = 100) {
    a = submit(96, a_runtime, 100);
    pass(0);
    b = submit(192, 100, 100);
    pass(0);
    ASSERT_EQ(executor.static_starts, (std::vector<JobId>{a}));
    ASSERT_EQ(sched.passes_skipped(), 0u);
  }

  testing_support::ScopedEnv env;
  Machine machine;
  JobRegistry jobs;
  DromRegistry drom;
  NodeManager mgr;
  RecordingExecutor executor;
  Sched sched;
  JobId a = kInvalidJob;
  JobId b = kInvalidJob;
};

TEST(BackfillQuietPass, QuietRepeatIsSkipped) {
  QuietPassRig rig;
  rig.run_quiet_pass();
  const auto reuses = rig.sched.profile_reuses();
  rig.pass(10);
  rig.pass(20);
  EXPECT_EQ(rig.sched.passes_skipped(), 2u);
  EXPECT_EQ(rig.sched.profile_reuses(), reuses);  // a skipped pass reads nothing
  EXPECT_EQ(rig.executor.static_starts, (std::vector<JobId>{rig.a}));
  EXPECT_TRUE(rig.sched.queue().contains(rig.b));
}

TEST(BackfillQuietPass, SubmitDefeatsSkip) {
  QuietPassRig rig;
  rig.run_quiet_pass();
  // C (2 nodes, 50s) fits beside A and ends before B's reservation.
  const JobId c = rig.submit(96, 50, 50, 10);
  rig.pass(10);
  EXPECT_EQ(rig.sched.passes_skipped(), 0u);
  EXPECT_EQ(rig.executor.static_starts, (std::vector<JobId>{rig.a, c}));
}

TEST(BackfillQuietPass, FinishDefeatsSkip) {
  QuietPassRig rig;
  rig.run_quiet_pass(/*a_runtime=*/50);
  // A finishes early: its release breakpoint (t=100) is still ahead, so
  // only the changed mutation serial tells the pass to run.
  finish(rig.jobs, rig.mgr, rig.a, 50);
  rig.pass(50);
  EXPECT_EQ(rig.sched.passes_skipped(), 0u);
  EXPECT_EQ(rig.executor.static_starts, (std::vector<JobId>{rig.a, rig.b}));
}

TEST(BackfillQuietPass, ReachingFirstReleaseDefeatsSkip) {
  QuietPassRig rig;
  rig.run_quiet_pass();
  const auto rebuilds = rig.sched.profile_rebuilds();
  rig.pass(99);
  EXPECT_EQ(rig.sched.passes_skipped(), 1u);
  // A is overdue at its predicted end: the base must be re-clamped.
  rig.pass(100);
  EXPECT_EQ(rig.sched.passes_skipped(), 1u);
  EXPECT_EQ(rig.sched.profile_rebuilds(), rebuilds + 1);
}

// Under the crosscheck every would-be-skipped pass runs in full and must
// prove itself quiet.
TEST(BackfillQuietPass, CrosscheckRunsTheRepeat) {
  QuietPassRig rig("1");
  ASSERT_TRUE(rig.executor.index.crosscheck());
  rig.run_quiet_pass();
  const auto reuses = rig.sched.profile_reuses();
  EXPECT_NO_THROW(rig.pass(10));
  EXPECT_EQ(rig.sched.passes_skipped(), 0u);
  EXPECT_EQ(rig.sched.profile_reuses(), reuses + 1);
  EXPECT_EQ(rig.executor.static_starts, (std::vector<JobId>{rig.a}));
}

/// A policy hook that frees the whole pass profile, so the next job "fits"
/// on paper while the machine has no node for it.
class ProfileCorruptingScheduler final : public BackfillScheduler {
 public:
  using BackfillScheduler::BackfillScheduler;

 protected:
  bool try_malleable(SimTime now, Job& /*job*/, std::optional<SimTime>& /*est_start*/,
                     const ReservationProfile& profile) override {
    // Breaks the read-only contract on purpose: no real hook can do this.
    auto& writable = const_cast<ReservationProfile&>(profile);
    writable.set_base(writable.capacity(), now, {});
    return false;
  }
};

// An unconstrained job the profile says fits now but the machine cannot
// place: a log line normally, a std::logic_error naming the job under the
// crosscheck.
TEST(BackfillCrosscheck, ProfileMachineDivergenceThrowsNamingTheJob) {
  for (const bool crosscheck : {false, true}) {
    QuietPassRig rig(crosscheck ? std::optional<std::string>("1") : std::nullopt);
    ProfileCorruptingScheduler sched(rig.machine, rig.jobs, rig.executor, SchedConfig{});
    sched.set_cluster_index(&rig.executor.index);
    const JobId full = rig.jobs.add(spec_of(0, 100, 100, 192, 48));
    sched.on_submit(full);
    sched.schedule_pass(0);
    ASSERT_EQ(rig.executor.static_starts, (std::vector<JobId>{full}));

    const JobId blocked = rig.jobs.add(spec_of(1, 100, 100, 192, 48));
    sched.on_submit(blocked);
    const JobId small = rig.jobs.add(spec_of(1, 10, 10, 48, 48));
    sched.on_submit(small);
    rig.executor.now = 1;
    if (!crosscheck) {
      EXPECT_NO_THROW(sched.schedule_pass(1));
      EXPECT_TRUE(sched.queue().contains(small));
      continue;
    }
    try {
      sched.schedule_pass(1);
      ADD_FAILURE() << "divergence did not throw";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("job " + std::to_string(small)),
                std::string::npos)
          << e.what();
    }
  }
}

// Estimate memo: a pass that reuses the base and repeats the previous
// pass's reservations answers an unconstrained job's static estimate from
// the previous pass's sweep at the same reservation-log position. In the
// quiet pass of run_quiet_pass() B's estimate (t=100) is swept at position
// 0; a submit at the tail defeats the quiet-pass skip so the pass runs.
TEST(BackfillEstimateMemo, RepeatPassOnReusedBaseHits) {
  QuietPassRig rig;
  rig.run_quiet_pass();
  EXPECT_EQ(rig.sched.estimate_memo_hits(), 0u);
  const auto reuses = rig.sched.profile_reuses();
  rig.submit(192, 100, 100, 10);  // C: reserved behind B, at t=200
  rig.pass(10);
  EXPECT_EQ(rig.sched.profile_reuses(), reuses + 1);
  EXPECT_EQ(rig.sched.estimate_memo_hits(), 1u);  // B
  rig.submit(192, 100, 100, 20);
  rig.pass(20);
  EXPECT_EQ(rig.sched.estimate_memo_hits(), 3u);  // B and C
  EXPECT_EQ(rig.executor.static_starts, (std::vector<JobId>{rig.a}));
}

// A rebuilt base starts a pass out of step, even where the cached
// estimate would still be >= now.
TEST(BackfillEstimateMemo, RebuiltBaseMisses) {
  QuietPassRig rig;
  rig.run_quiet_pass();
  rig.submit(192, 100, 100, 10);
  rig.pass(10);
  ASSERT_EQ(rig.sched.estimate_memo_hits(), 1u);
  const auto rebuilds = rig.sched.profile_rebuilds();
  rig.pass(100);  // A's release reached: the base is re-clamped
  EXPECT_EQ(rig.sched.profile_rebuilds(), rebuilds + 1);
  EXPECT_EQ(rig.sched.estimate_memo_hits(), 1u);
}

// B's longer request keeps its start (t=100) but changes its reservation,
// so the pass leaves step there: C's entry matches in position, request
// and duration, yet C must be swept again (its estimate moves from 200 to
// 250). The crosscheck re-sweeps every hit, so a stale one would throw.
TEST(BackfillEstimateMemo, DivergentReservationEndsReuseForLaterJobs) {
  QuietPassRig rig("1");
  rig.run_quiet_pass();
  rig.submit(192, 100, 100, 10);  // C
  rig.pass(10);
  ASSERT_EQ(rig.sched.estimate_memo_hits(), 1u);
  rig.jobs.at(rig.b).spec.req_time = 150;
  rig.submit(192, 100, 100, 20);
  EXPECT_NO_THROW(rig.pass(20));
  EXPECT_EQ(rig.sched.estimate_memo_hits(), 1u);
  EXPECT_EQ(rig.executor.static_starts, (std::vector<JobId>{rig.a}));
}

// X (submitted late, queued by its submit time between B and C) repeats
// C's old reservation exactly, so the log stays in step, but C now sits
// one position later and must be swept (its estimate moves from 200 to
// 300).
TEST(BackfillEstimateMemo, ShiftedLogPositionMisses) {
  QuietPassRig rig("1");
  rig.run_quiet_pass();
  const JobId x = rig.jobs.add(spec_of(0, 100, 100, 192, 48));
  rig.submit(192, 100, 100, 0);  // C: queued behind B, reserved at t=200
  rig.pass(0);
  ASSERT_EQ(rig.sched.estimate_memo_hits(), 1u);
  rig.sched.on_submit(x);
  EXPECT_NO_THROW(rig.pass(10));
  EXPECT_EQ(rig.sched.estimate_memo_hits(), 2u);  // B only
}

// A changed planned duration misses; earlier jobs still hit.
TEST(BackfillEstimateMemo, ChangedPlannedMisses) {
  QuietPassRig rig;
  rig.run_quiet_pass();
  const JobId c = rig.submit(192, 100, 100, 10);
  rig.pass(10);
  ASSERT_EQ(rig.sched.estimate_memo_hits(), 1u);
  rig.jobs.at(c).spec.req_time = 150;
  rig.submit(192, 100, 100, 20);
  rig.pass(20);
  EXPECT_EQ(rig.sched.estimate_memo_hits(), 2u);  // B, not C
}

/// A policy hook that holds two nodes over a fixed window [5, 20) while it
/// examines `holder`: a reservation independent of `now`, so passes stay in
/// step across it while estimates behind it fall below a later `now`.
class FixedHoldScheduler final : public BackfillScheduler {
 public:
  using BackfillScheduler::BackfillScheduler;
  JobId holder = kInvalidJob;

 protected:
  bool try_malleable(SimTime /*now*/, Job& job, std::optional<SimTime>& /*est_start*/,
                     const ReservationProfile& /*profile*/) override {
    if (job.spec.id == holder) reserve_window(5, 20, 2, /*occupancy_backed=*/false);
    return false;
  }
};

// J's estimate (t=20, after the hold) is below the next pass's `now`: it
// must be swept again, and then J starts at once.
TEST(BackfillEstimateMemo, EstimateBelowNowMisses) {
  QuietPassRig<FixedHoldScheduler> rig;
  const JobId a = rig.submit(96, 1000, 1000);  // two nodes until t=1000
  rig.pass(0);
  rig.sched.holder = rig.submit(192, 100, 100);  // H: reserved at t=1000
  const JobId j = rig.submit(96, 10, 10);        // J: two nodes, blocked by the hold
  rig.pass(0);
  EXPECT_EQ(rig.sched.estimate_memo_hits(), 0u);
  rig.submit(192, 100, 100, 10);
  rig.pass(10);
  EXPECT_EQ(rig.sched.estimate_memo_hits(), 2u);  // H and J (t=20 >= 10)
  rig.submit(192, 100, 100, 25);
  rig.pass(25);
  EXPECT_EQ(rig.sched.estimate_memo_hits(), 3u);  // H only
  EXPECT_EQ(rig.executor.static_starts, (std::vector<JobId>{a, j}));
}

// Constrained jobs always sweep: their class layers are rebuilt per pass.
// On nodes 2-3 (highmem) A runs until t=100 and B waits for them; E and
// F (unconstrained, four nodes) queue behind B's reservation.
TEST(BackfillEstimateMemo, ConstrainedJobNeverHits) {
  MachineConfig config = QuietPassRig<>::four_nodes();
  NodeAttributes highmem;
  highmem.memory_gb = 384;
  config.attribute_overrides.emplace_back(2, highmem);
  config.attribute_overrides.emplace_back(3, highmem);
  QuietPassRig rig(std::nullopt, config);
  const auto submit_highmem = [&](SimTime req_time, SimTime at) {
    JobSpec spec = spec_of(at, req_time, req_time, 96, 48);
    spec.constraints.min_memory_gb = 128;
    const JobId id = rig.jobs.add(spec);
    rig.sched.on_submit(id);
    return id;
  };
  const JobId a = submit_highmem(100, 0);
  rig.pass(0);
  ASSERT_EQ(rig.executor.static_starts, (std::vector<JobId>{a}));
  const JobId b = submit_highmem(500, 10);
  rig.pass(10);
  rig.submit(192, 100, 100, 20);  // E: reserved at t=600
  rig.pass(20);
  EXPECT_EQ(rig.sched.estimate_memo_hits(), 0u);
  const auto layers = rig.sched.class_layer_builds();
  rig.submit(192, 100, 100, 30);
  rig.pass(30);
  EXPECT_EQ(rig.sched.class_layer_builds(), layers + 1);
  EXPECT_EQ(rig.sched.estimate_memo_hits(), 1u);  // E, never B
  EXPECT_TRUE(rig.sched.queue().contains(b));
}

/// A policy hook that edits the pass profile behind reserve_window()'s
/// back while it examines `holder`: two nodes over [now, now + 50). The
/// log cannot see it, so the memo hands a later job a stale estimate.
class UnloggedHoldScheduler final : public BackfillScheduler {
 public:
  using BackfillScheduler::BackfillScheduler;
  JobId holder = kInvalidJob;

 protected:
  bool try_malleable(SimTime now, Job& job, std::optional<SimTime>& /*est_start*/,
                     const ReservationProfile& profile) override {
    // Breaks the read-only contract on purpose, past reserve_window's log.
    if (job.spec.id == holder) {
      const_cast<ReservationProfile&>(profile).reserve(now, now + 50, 2);
    }
    return false;
  }
};

// The crosscheck re-sweeps every hit: J's cached t=50 is stale once the
// unlogged hold moves to [10, 60), and the pass throws naming J.
TEST(BackfillEstimateMemo, CrosscheckCatchesAStaleHit) {
  QuietPassRig<UnloggedHoldScheduler> rig("1");
  rig.submit(96, 1000, 1000);
  rig.pass(0);
  rig.sched.holder = rig.submit(192, 100, 100);
  const JobId j = rig.submit(96, 10, 10);
  rig.pass(0);
  rig.submit(192, 100, 100, 10);
  try {
    rig.pass(10);
    ADD_FAILURE() << "stale estimate memo hit did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("estimate memo diverged from a fresh sweep: job " +
                                         std::to_string(j) + " at t=10 cached 50, fresh 60"),
              std::string::npos)
        << e.what();
  }
}

/// A deterministic churn of submits, early finishes and passes; returns
/// the static starts and the memo hits.
std::pair<std::vector<JobId>, std::uint64_t> churn(QuietPassRig<>& rig) {
  std::uint64_t lcg = 12345;
  const auto next = [&](std::uint64_t bound) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return (lcg >> 33) % bound;
  };
  std::vector<JobId> running;
  for (SimTime now = 0; now < 4000; now += 1 + static_cast<SimTime>(next(40))) {
    for (std::size_t i = 0; i < running.size();) {
      const Job& job = rig.jobs.at(running[i]);
      if (job.start_time + job.spec.base_runtime <= now) {
        finish(rig.jobs, rig.mgr, running[i], now);
        rig.sched.on_finish(running[i]);
        running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    for (std::uint64_t n = next(3); n > 0; --n) {
      const SimTime req = 20 + static_cast<SimTime>(next(300));
      const SimTime runtime = 1 + static_cast<SimTime>(next(static_cast<std::uint64_t>(req)));
      rig.submit(48 * (1 + static_cast<int>(next(4))), runtime, req, now);
    }
    const std::size_t before = rig.executor.static_starts.size();
    rig.pass(now);
    running.insert(running.end(), rig.executor.static_starts.begin() +
                                      static_cast<std::ptrdiff_t>(before),
                   rig.executor.static_starts.end());
  }
  return {rig.executor.static_starts, rig.sched.estimate_memo_hits()};
}

// Under the crosscheck every hit is re-swept; a churned run stays clean
// and starts the same jobs at the same passes as the unchecked run.
TEST(BackfillEstimateMemo, CrosscheckedRunStaysClean) {
  QuietPassRig plain;
  QuietPassRig checked("1");
  ASSERT_TRUE(checked.executor.index.crosscheck());
  const auto [plain_starts, plain_hits] = churn(plain);
  std::pair<std::vector<JobId>, std::uint64_t> checked_run;
  ASSERT_NO_THROW(checked_run = churn(checked));
  EXPECT_EQ(checked_run.first, plain_starts);
  EXPECT_GT(plain_hits, 0u);
  EXPECT_GT(checked_run.second, 0u);
}

}  // namespace
}  // namespace sdsched

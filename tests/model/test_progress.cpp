#include "model/progress.h"

#include <gtest/gtest.h>

namespace sdsched {
namespace {

Job make_job(SimTime base_runtime, int req_cpus, std::vector<NodeShare> shares) {
  Job job;
  job.spec.base_runtime = base_runtime;
  job.spec.req_cpus = req_cpus;
  job.shares = std::move(shares);
  job.state = JobState::Running;
  job.last_progress_update = 0;
  return job;
}

TEST(Progress, FullRateCompletesInBaseRuntime) {
  ProgressTracker tracker(RuntimeModelKind::Ideal);
  Job job = make_job(1000, 48, {{0, 48, 48}});
  tracker.set_rate_from_shares(job);
  EXPECT_DOUBLE_EQ(job.rate, 1.0);
  EXPECT_EQ(tracker.remaining_wallclock(job), 1000);
}

TEST(Progress, SettleAccumulatesWork) {
  ProgressTracker tracker(RuntimeModelKind::Ideal);
  Job job = make_job(1000, 48, {{0, 48, 48}});
  tracker.set_rate_from_shares(job);
  tracker.settle(job, 400);
  EXPECT_DOUBLE_EQ(job.work_done, 400.0);
  EXPECT_EQ(job.last_progress_update, 400);
  EXPECT_EQ(tracker.remaining_wallclock(job), 600);
}

TEST(Progress, ShrinkHalvesRateAndStretchesRemaining) {
  // Paper §3.4 worked example: shrink at t=400 to half cores; the 600s of
  // remaining work now needs 1200s of wallclock (Eq. 6 with sf=0.5).
  ProgressTracker tracker(RuntimeModelKind::WorstCase);
  Job job = make_job(1000, 48, {{0, 48, 48}});
  tracker.set_rate_from_shares(job);
  tracker.settle(job, 400);
  job.shares[0].cpus = 24;
  tracker.set_rate_from_shares(job);
  EXPECT_DOUBLE_EQ(job.rate, 0.5);
  EXPECT_EQ(tracker.remaining_wallclock(job), 1200);
}

TEST(Progress, ExpandRestoresFullSpeed) {
  ProgressTracker tracker(RuntimeModelKind::WorstCase);
  Job job = make_job(1000, 48, {{0, 24, 48}});
  tracker.set_rate_from_shares(job);
  tracker.settle(job, 1000);  // 500s of work done at rate 0.5
  job.shares[0].cpus = 48;
  tracker.set_rate_from_shares(job);
  EXPECT_DOUBLE_EQ(job.rate, 1.0);
  EXPECT_EQ(tracker.remaining_wallclock(job), 500);  // 500s of work left at full speed
}

TEST(Progress, MultiSlotIntegrationMatchesEq6) {
  // Slots: 300s full, 600s at half, rest full -> total work 1000.
  ProgressTracker tracker(RuntimeModelKind::WorstCase);
  Job job = make_job(1000, 96, {{0, 48, 48}, {1, 48, 48}});
  tracker.set_rate_from_shares(job);
  tracker.settle(job, 300);  // work 300
  job.shares[1].cpus = 24;
  tracker.set_rate_from_shares(job);
  EXPECT_DOUBLE_EQ(job.rate, 0.5);
  tracker.settle(job, 900);  // +300 -> 600
  job.shares[1].cpus = 48;
  tracker.set_rate_from_shares(job);
  EXPECT_EQ(900 + tracker.remaining_wallclock(job), 1300);  // 400 work left at rate 1
  // The paper's "increase": actual 1300 vs static 1000 = the 300s lost.
}

TEST(Progress, ReconfigureIsIdempotentAtSameInstant) {
  ProgressTracker tracker(RuntimeModelKind::Ideal);
  Job job = make_job(500, 48, {{0, 48, 48}});
  const auto finish_after_reconfigure = [&] {
    tracker.settle(job, 100);
    tracker.set_rate_from_shares(job);
    return 100 + tracker.remaining_wallclock(job);
  };
  tracker.set_rate_from_shares(job);
  const SimTime f1 = finish_after_reconfigure();
  const SimTime f2 = finish_after_reconfigure();
  EXPECT_EQ(f1, f2);
}

TEST(Progress, RemainingWallclockRoundsUp) {
  ProgressTracker tracker(RuntimeModelKind::Ideal);
  Job job = make_job(100, 3, {{0, 2, 3}});  // rate 2/3
  tracker.set_rate_from_shares(job);
  // 100 / (2/3) = 150 exactly; needs no rounding.
  EXPECT_EQ(tracker.remaining_wallclock(job), 150);
  Job job2 = make_job(100, 7, {{0, 3, 7}});  // rate 3/7
  tracker.set_rate_from_shares(job2);
  EXPECT_EQ(tracker.remaining_wallclock(job2), 234);  // ceil(233.33)
}

TEST(Progress, CompletedWorkGivesZeroRemaining) {
  ProgressTracker tracker(RuntimeModelKind::Ideal);
  Job job = make_job(100, 48, {{0, 48, 48}});
  tracker.set_rate_from_shares(job);
  tracker.settle(job, 100);
  EXPECT_EQ(tracker.remaining_wallclock(job), 0);
  tracker.settle(job, 150);  // over-settling keeps remaining at 0
  EXPECT_EQ(tracker.remaining_wallclock(job), 0);
}

TEST(Progress, ContentionMultiplierScalesRate) {
  ProgressTracker tracker(RuntimeModelKind::Ideal);
  Job job = make_job(1000, 48, {{0, 48, 48}});
  tracker.set_rate_from_shares(job, 0.8);
  EXPECT_DOUBLE_EQ(job.rate, 0.8);
  EXPECT_EQ(tracker.remaining_wallclock(job), 1250);
}

}  // namespace
}  // namespace sdsched

#include "job/job.h"

#include <gtest/gtest.h>

#include "core/mate_registry.h"
#include "job/job_registry.h"
#include "model/runtime_model.h"

namespace sdsched {
namespace {

TEST(Job, NodesForRoundsUp) {
  EXPECT_EQ(nodes_for(1, 48), 1);
  EXPECT_EQ(nodes_for(48, 48), 1);
  EXPECT_EQ(nodes_for(49, 48), 2);
  EXPECT_EQ(nodes_for(96, 48), 2);
  EXPECT_EQ(nodes_for(0, 48), 1);
  EXPECT_EQ(nodes_for(-5, 48), 1);
}

TEST(Job, BalancedSplitEven) {
  EXPECT_EQ(balanced_split(96, 2), (std::vector<int>{48, 48}));
}

TEST(Job, BalancedSplitRemainderGoesFirst) {
  EXPECT_EQ(balanced_split(50, 3), (std::vector<int>{17, 17, 16}));
  EXPECT_EQ(balanced_split(7, 4), (std::vector<int>{2, 2, 2, 1}));
}

TEST(Job, BalancedSplitSingleNode) {
  EXPECT_EQ(balanced_split(13, 1), (std::vector<int>{13}));
}

TEST(Job, AllocatedAndMinCpus) {
  Job job;
  job.shares = {{0, 24, 48}, {1, 48, 48}, {2, 30, 48}};
  EXPECT_EQ(job.allocated_cpus(), 102);
  // Eq. 6 runs at the least-provisioned node's ratio: 24 of 48.
  EXPECT_DOUBLE_EQ(progress_rate(RuntimeModelKind::WorstCase, job.shares, 144), 0.5);
}

TEST(Job, EmptySharesGiveZero) {
  Job job;
  EXPECT_EQ(job.allocated_cpus(), 0);
  EXPECT_DOUBLE_EQ(progress_rate(RuntimeModelKind::WorstCase, job.shares, 48), 0.0);
}

TEST(Job, MalleabilityPredicates) {
  Job job;
  job.spec.malleability = MalleabilityClass::Malleable;
  EXPECT_TRUE(job.malleable());
  EXPECT_TRUE(job.can_start_shrunk());
  EXPECT_TRUE(job.can_be_mate());

  job.spec.malleability = MalleabilityClass::Moldable;
  EXPECT_FALSE(job.malleable());
  EXPECT_TRUE(job.can_start_shrunk());  // moldable: guest yes, mate no
  EXPECT_FALSE(job.can_be_mate());

  job.spec.malleability = MalleabilityClass::Rigid;
  EXPECT_FALSE(job.can_start_shrunk());
  EXPECT_FALSE(job.can_be_mate());
}

TEST(Job, WaitResponseSlowdown) {
  Job job;
  job.spec.submit = 100;
  job.spec.base_runtime = 50;
  job.start_time = 160;
  job.end_time = 220;
  EXPECT_EQ(job.wait_time(0), 60);
  EXPECT_EQ(job.response_time(), 120);
  EXPECT_DOUBLE_EQ(job.slowdown(), 120.0 / 50.0);
}

TEST(Job, WaitTimeWhilePending) {
  Job job;
  job.spec.submit = 100;
  EXPECT_EQ(job.wait_time(150), 50);
}

TEST(Job, SlowdownFlooredRuntime) {
  Job job;
  job.spec.submit = 0;
  job.spec.base_runtime = 0;  // degenerate zero-second job
  job.start_time = 0;
  job.end_time = 30;
  EXPECT_DOUBLE_EQ(job.slowdown(), 30.0);
}

TEST(JobRegistry, AssignsDenseIds) {
  JobRegistry registry;
  JobSpec spec;
  spec.id = kInvalidJob;
  EXPECT_EQ(registry.add(spec), 0u);
  EXPECT_EQ(registry.add(spec), 1u);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.at(1).spec.id, 1u);
}

TEST(JobRegistry, RunningIdsFiltersStates) {
  JobRegistry registry;
  JobSpec spec;
  spec.id = kInvalidJob;
  registry.add(spec);
  registry.add(spec);
  registry.add(spec);
  registry.at(1).state = JobState::Running;
  MateRegistry running;
  running.seed(registry);
  EXPECT_EQ(running.running(), (std::vector<JobId>{1}));
}

}  // namespace
}  // namespace sdsched

#include "core/cutoff.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace sdsched {
namespace {

Job& add_running(JobRegistry& jobs, SimTime submit, SimTime start, SimTime req_time,
                 SimTime increase = 0) {
  JobSpec spec;
  spec.submit = submit;
  spec.req_time = req_time;
  const JobId id = jobs.add(spec);
  Job& job = jobs.at(id);
  job.state = JobState::Running;
  job.start_time = start;
  job.predicted_increase = increase;
  return job;
}

/// Every id in the registry, ascending: what MateRegistry::running() holds
/// when all jobs run, and a list with stale entries otherwise.
std::vector<JobId> all_ids(const JobRegistry& jobs) {
  std::vector<JobId> ids;
  for (const auto& job : jobs) ids.push_back(job.spec.id);
  return ids;
}

// Static and Infinite ignore the running list, empty or not.
TEST(Cutoff, StaticReturnsConfiguredValue) {
  JobRegistry jobs;
  EXPECT_DOUBLE_EQ(compute_cutoff(CutoffConfig::max_sd(10.0), jobs, {}, 0), 10.0);
  add_running(jobs, 0, 100, 100);  // slowdown 2
  add_running(jobs, 0, 300, 100);  // slowdown 4
  EXPECT_DOUBLE_EQ(compute_cutoff(CutoffConfig::max_sd(5.0), jobs, all_ids(jobs), 999), 5.0);
}

TEST(Cutoff, InfiniteIsUnbounded) {
  JobRegistry jobs;
  EXPECT_TRUE(std::isinf(compute_cutoff(CutoffConfig::infinite(), jobs, {}, 0)));
  add_running(jobs, 0, 100, 100);
  EXPECT_TRUE(std::isinf(compute_cutoff(CutoffConfig::infinite(), jobs, all_ids(jobs), 300)));
}

TEST(Cutoff, EstimatedRunningSlowdownFormula) {
  JobRegistry jobs;
  // waited 100s, requested 100s, no increase -> (100+100)/100 = 2.
  const Job& job = add_running(jobs, 0, 100, 100);
  EXPECT_DOUBLE_EQ(estimated_running_slowdown(job, 100), 2.0);
}

TEST(Cutoff, EstimatedSlowdownIncludesIncrease) {
  JobRegistry jobs;
  const Job& job = add_running(jobs, 0, 50, 100, 30);
  // (wait 50 + increase 30 + req 100)/100 = 1.8
  EXPECT_DOUBLE_EQ(estimated_running_slowdown(job, 60), 1.8);
}

TEST(Cutoff, DynamicAverageOfRunningJobs) {
  JobRegistry jobs;
  add_running(jobs, 0, 100, 100);  // slowdown 2
  add_running(jobs, 0, 300, 100);  // slowdown 4
  const double cutoff = compute_cutoff(CutoffConfig::dynamic_avg(), jobs, all_ids(jobs), 300);
  EXPECT_DOUBLE_EQ(cutoff, 3.0);
}

TEST(Cutoff, DynamicIgnoresNonRunningJobs) {
  JobRegistry jobs;
  add_running(jobs, 0, 100, 100);  // slowdown 2
  JobSpec pending;
  pending.submit = 0;
  pending.req_time = 1;
  jobs.add(pending);  // stays Pending: huge would-be slowdown, must not count
  EXPECT_DOUBLE_EQ(compute_cutoff(CutoffConfig::dynamic_avg(), jobs, all_ids(jobs), 100), 2.0);
}

TEST(Cutoff, DynamicSkipsStaleRunningIds) {
  JobRegistry jobs;
  add_running(jobs, 0, 100, 100);                // slowdown 2
  Job& done = add_running(jobs, 0, 900, 100);    // would be 10 if counted
  done.state = JobState::Completed;              // finished, still listed
  const std::vector<JobId> running = all_ids(jobs);
  ASSERT_EQ(running.size(), 2u);
  EXPECT_DOUBLE_EQ(compute_cutoff(CutoffConfig::dynamic_avg(), jobs, running, 900), 2.0);
  // A list of only stale ids averages nothing: unbounded, as with no runners.
  EXPECT_TRUE(std::isinf(
      compute_cutoff(CutoffConfig::dynamic_avg(), jobs, {done.spec.id}, 900)));
}

TEST(Cutoff, DynamicWithNoRunningJobsIsInfinite) {
  JobRegistry jobs;
  EXPECT_TRUE(std::isinf(compute_cutoff(CutoffConfig::dynamic_avg(), jobs, {}, 0)));
}

TEST(Cutoff, ZeroWaitGivesSlowdownOne) {
  JobRegistry jobs;
  const Job& job = add_running(jobs, 100, 100, 200);
  EXPECT_DOUBLE_EQ(estimated_running_slowdown(job, 100), 1.0);
}

}  // namespace
}  // namespace sdsched

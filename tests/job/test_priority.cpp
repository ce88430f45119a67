#include "job/priority.h"

#include <gtest/gtest.h>

#include "job/wait_queue.h"

namespace sdsched {
namespace {

JobId add_job(JobRegistry& jobs, WaitQueue& queue, SimTime submit, int nodes) {
  JobSpec spec;
  spec.submit = submit;
  spec.req_nodes = nodes;
  spec.req_cpus = nodes * 48;
  const JobId id = jobs.add(spec);
  queue.push(id, submit);
  return id;
}

TEST(Priority, FcfsIsQueueOrder) {
  JobRegistry jobs;
  WaitQueue queue;
  add_job(jobs, queue, 100, 4);
  add_job(jobs, queue, 50, 1);
  add_job(jobs, queue, 75, 2);
  queue.configure(PriorityConfig{}, &jobs);  // Fcfs
  EXPECT_EQ(queue.scheduling_order(200), (std::vector<JobId>{1, 2, 0}));
}

TEST(Priority, SmallestFirstOrdersByNodes) {
  JobRegistry jobs;
  WaitQueue queue;
  add_job(jobs, queue, 0, 4);
  add_job(jobs, queue, 1, 1);
  add_job(jobs, queue, 2, 2);
  PriorityConfig config;
  config.kind = PriorityKind::SmallestFirst;
  queue.configure(config, &jobs);
  EXPECT_EQ(queue.scheduling_order(10), (std::vector<JobId>{1, 2, 0}));
}

TEST(Priority, SmallestFirstTiesStayFcfs) {
  JobRegistry jobs;
  WaitQueue queue;
  add_job(jobs, queue, 0, 2);
  add_job(jobs, queue, 1, 2);
  add_job(jobs, queue, 2, 2);
  PriorityConfig config;
  config.kind = PriorityKind::SmallestFirst;
  queue.configure(config, &jobs);
  EXPECT_EQ(queue.scheduling_order(10), (std::vector<JobId>{0, 1, 2}));
}

TEST(Priority, MultifactorAgeGrowsAndSaturates) {
  PriorityConfig config;
  config.kind = PriorityKind::Multifactor;
  config.age_weight = 1000.0;
  config.age_saturation = 100;
  JobSpec spec;
  spec.submit = 0;
  spec.req_nodes = 1;
  EXPECT_LT(job_priority(config, spec, 10), job_priority(config, spec, 50));
  EXPECT_DOUBLE_EQ(job_priority(config, spec, 100), 1000.0);
  EXPECT_DOUBLE_EQ(job_priority(config, spec, 5000), 1000.0);  // saturated
}

TEST(Priority, MultifactorSizeWeightFavoursLargeWhenPositive) {
  PriorityConfig config;
  config.kind = PriorityKind::Multifactor;
  config.age_weight = 0.0;
  config.size_weight = 100.0;
  config.machine_nodes = 10;
  JobSpec small;
  small.req_nodes = 1;
  JobSpec large;
  large.req_nodes = 8;
  EXPECT_GT(job_priority(config, large, 0), job_priority(config, small, 0));
  config.size_weight = -100.0;  // favour-small site
  EXPECT_LT(job_priority(config, large, 0), job_priority(config, small, 0));
}

TEST(Priority, MultifactorAgeLeadWinsUntilSaturation) {
  // A much older small job outranks a fresh large one while its age lead
  // counts; once both saturate, only the size factor separates them.
  PriorityConfig config;
  config.kind = PriorityKind::Multifactor;
  config.age_weight = 1000.0;
  config.size_weight = 800.0;
  config.age_saturation = 1000;
  config.machine_nodes = 10;
  JobSpec old_small;
  old_small.submit = 0;
  old_small.req_nodes = 1;
  JobSpec new_large;
  new_large.submit = 900;
  new_large.req_nodes = 10;
  // t=1000: old is saturated (1000 + 80), large has age 100 (100 + 800).
  EXPECT_GT(job_priority(config, old_small, 1000), job_priority(config, new_large, 1000));
  // t=2000: both saturated; size decides (1080 vs 1800).
  EXPECT_LT(job_priority(config, old_small, 2000), job_priority(config, new_large, 2000));
}

}  // namespace
}  // namespace sdsched

#include "job/wait_queue.h"

#include <gtest/gtest.h>

namespace sdsched {
namespace {

TEST(WaitQueue, FcfsOrder) {
  WaitQueue queue;
  queue.push(1, 100);
  queue.push(2, 200);
  queue.push(3, 150);
  EXPECT_EQ(queue.scheduling_order(0), (std::vector<JobId>{1, 3, 2}));
  EXPECT_EQ(queue.front(), 1u);
}

TEST(WaitQueue, TiesBreakById) {
  WaitQueue queue;
  queue.push(5, 100);
  queue.push(2, 100);
  queue.push(9, 100);
  EXPECT_EQ(queue.scheduling_order(0), (std::vector<JobId>{2, 5, 9}));
}

TEST(WaitQueue, RemoveMiddle) {
  WaitQueue queue;
  queue.push(1, 1);
  queue.push(2, 2);
  queue.push(3, 3);
  EXPECT_TRUE(queue.remove(2));
  EXPECT_FALSE(queue.remove(2));
  EXPECT_EQ(queue.scheduling_order(0), (std::vector<JobId>{1, 3}));
  EXPECT_EQ(queue.size(), 2u);
}

TEST(WaitQueue, ContainsAndEmpty) {
  WaitQueue queue;
  EXPECT_TRUE(queue.empty());
  queue.push(7, 10);
  EXPECT_TRUE(queue.contains(7));
  EXPECT_FALSE(queue.contains(8));
  EXPECT_FALSE(queue.empty());
  queue.remove(7);
  EXPECT_TRUE(queue.empty());
}

TEST(WaitQueue, SchedulingOrderFcfsNeedsNoRegistry) {
  WaitQueue queue;
  queue.push(3, 30);
  queue.push(1, 10);
  queue.push(2, 20);
  EXPECT_EQ(queue.scheduling_order(0), (std::vector<JobId>{1, 2, 3}));
}

TEST(WaitQueue, SchedulingOrderSmallestFirstReordersOnChange) {
  JobRegistry jobs;
  WaitQueue queue;
  PriorityConfig config;
  config.kind = PriorityKind::SmallestFirst;
  queue.configure(config, &jobs);

  const auto add = [&](SimTime submit, int nodes) {
    JobSpec spec;
    spec.submit = submit;
    spec.req_nodes = nodes;
    const JobId id = jobs.add(spec);
    queue.push(id, submit);
    return id;
  };
  const JobId big = add(0, 8);
  const JobId small = add(1, 1);
  const JobId mid = add(2, 4);
  EXPECT_EQ(queue.scheduling_order(10), (std::vector<JobId>{small, mid, big}));

  // Removing mid-queue keeps the remaining order; the cached view is only
  // rebuilt on the next scheduling_order call.
  queue.remove(small);
  EXPECT_EQ(queue.scheduling_order(10), (std::vector<JobId>{mid, big}));
  const JobId tiny = add(3, 2);
  EXPECT_EQ(queue.scheduling_order(10), (std::vector<JobId>{tiny, mid, big}));
}

TEST(WaitQueue, SchedulingOrderViewSurvivesRemovalDuringIteration) {
  // Schedulers iterate one pass view while removing the jobs they start;
  // the returned vector must not change under them.
  WaitQueue queue;
  for (JobId id = 0; id < 6; ++id) queue.push(id, static_cast<SimTime>(id));
  const std::vector<JobId>& view = queue.scheduling_order(0);
  const std::vector<JobId> snapshot = view;
  queue.remove(0);
  queue.remove(3);
  EXPECT_EQ(view, snapshot);  // same object, untouched by remove()
  EXPECT_EQ(queue.scheduling_order(0), (std::vector<JobId>{1, 2, 4, 5}));
}

TEST(WaitQueue, SchedulingOrderMultifactorTracksNow) {
  JobRegistry jobs;
  WaitQueue queue;
  PriorityConfig config;
  config.kind = PriorityKind::Multifactor;
  config.age_weight = 1000.0;
  config.size_weight = 800.0;
  config.age_saturation = 1000;
  config.machine_nodes = 10;
  queue.configure(config, &jobs);

  JobSpec old_small;
  old_small.submit = 0;
  old_small.req_nodes = 1;
  const JobId a = jobs.add(old_small);
  JobSpec new_large;
  new_large.submit = 900;
  new_large.req_nodes = 10;
  const JobId b = jobs.add(new_large);
  queue.push(a, 0);
  queue.push(b, 900);

  // Same scenario as Priority.MultifactorAgeLeadWinsUntilSaturation: the
  // cached order must follow `now`, not just queue membership.
  EXPECT_EQ(queue.scheduling_order(1000), (std::vector<JobId>{a, b}));
  EXPECT_EQ(queue.scheduling_order(2000), (std::vector<JobId>{b, a}));
  EXPECT_EQ(queue.scheduling_order(2000), (std::vector<JobId>{b, a}));  // cached
}

TEST(WaitQueue, InOrderPushIsCommonCase) {
  WaitQueue queue;
  for (JobId id = 0; id < 100; ++id) {
    queue.push(id, static_cast<SimTime>(id * 10));
  }
  const auto ids = queue.scheduling_order(0);
  for (JobId id = 0; id < 100; ++id) {
    EXPECT_EQ(ids[id], id);
  }
}

}  // namespace
}  // namespace sdsched

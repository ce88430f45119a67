#include "job/wait_queue.h"

#include <gtest/gtest.h>

#include <utility>

#include "job/job_registry.h"
#include "sched/scheduler.h"

namespace sdsched {
namespace {

TEST(WaitQueue, FcfsOrder) {
  WaitQueue queue;
  queue.push(1, 100);
  queue.push(2, 200);
  queue.push(3, 150);
  EXPECT_EQ(queue.scheduling_order(), (std::vector<JobId>{1, 3, 2}));
  EXPECT_EQ(queue.front(), 1u);
}

TEST(WaitQueue, TiesBreakById) {
  WaitQueue queue;
  queue.push(5, 100);
  queue.push(2, 100);
  queue.push(9, 100);
  EXPECT_EQ(queue.scheduling_order(), (std::vector<JobId>{2, 5, 9}));
}

TEST(WaitQueue, RemoveMiddle) {
  WaitQueue queue;
  queue.push(1, 1);
  queue.push(2, 2);
  queue.push(3, 3);
  EXPECT_TRUE(queue.remove(2));
  EXPECT_FALSE(queue.remove(2));
  EXPECT_EQ(queue.scheduling_order(), (std::vector<JobId>{1, 3}));
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

// FIFO is the only priority: the scheduling order is arrival order,
// whatever the jobs' sizes.
TEST(Priority, FcfsIsQueueOrder) {
  JobRegistry jobs;
  WaitQueue queue;
  for (const auto& [submit, nodes] : {std::pair<SimTime, int>{100, 4}, {50, 1}, {75, 2}}) {
    JobSpec spec;
    spec.submit = submit;
    spec.req_nodes = nodes;
    queue.push(jobs.add(spec), submit);
  }
  EXPECT_EQ(SchedConfig{}.priority.kind, PriorityKind::Fcfs);
  EXPECT_EQ(queue.scheduling_order(), (std::vector<JobId>{1, 2, 0}));
}

TEST(WaitQueue, SchedulingOrderFcfsNeedsNoRegistry) {
  WaitQueue queue;
  queue.push(3, 30);
  queue.push(1, 10);
  queue.push(2, 20);
  EXPECT_EQ(queue.scheduling_order(), (std::vector<JobId>{1, 2, 3}));
}

TEST(WaitQueue, SchedulingOrderViewSurvivesRemovalDuringIteration) {
  // Schedulers iterate one pass view while removing the jobs they start;
  // the returned vector must not change under them.
  WaitQueue queue;
  for (JobId id = 0; id < 6; ++id) queue.push(id, static_cast<SimTime>(id));
  const std::vector<JobId>& view = queue.scheduling_order();
  const std::vector<JobId> snapshot = view;
  queue.remove(0);
  queue.remove(3);
  EXPECT_EQ(view, snapshot);  // same object, untouched by remove()
  EXPECT_EQ(queue.scheduling_order(), (std::vector<JobId>{1, 2, 4, 5}));
}

TEST(WaitQueue, InOrderPushIsCommonCase) {
  WaitQueue queue;
  for (JobId id = 0; id < 100; ++id) {
    queue.push(id, static_cast<SimTime>(id * 10));
  }
  const auto ids = queue.scheduling_order();
  for (JobId id = 0; id < 100; ++id) {
    EXPECT_EQ(ids[id], id);
  }
}

}  // namespace
}  // namespace sdsched

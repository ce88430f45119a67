#include "sched/fcfs.h"

#include <gtest/gtest.h>

#include "scheduler_test_harness.h"

namespace sdsched {
namespace {

using testing_support::RecordingExecutor;
using testing_support::finish;
using testing_support::spec_of;

class FcfsTest : public ::testing::Test {
 protected:
  FcfsTest()
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
    return config;
  }

  JobId submit(int cpus, SimTime submit_time = 0, SimTime runtime = 100) {
    const JobId id = jobs_.add(spec_of(submit_time, runtime, runtime, cpus, 48));
    sched_.on_submit(id);
    return id;
  }

  Machine machine_;
  JobRegistry jobs_;
  DromRegistry drom_;
  NodeManager mgr_;
  RecordingExecutor executor_;
  FcfsScheduler sched_;
};

TEST_F(FcfsTest, StartsJobsInOrderWhileTheyFit) {
  const JobId a = submit(96);   // 2 nodes
  const JobId b = submit(96);   // 2 nodes
  sched_.schedule_pass(0);
  EXPECT_EQ(executor_.static_starts, (std::vector<JobId>{a, b}));
  EXPECT_TRUE(sched_.queue().empty());
}

TEST_F(FcfsTest, HeadBlocksLaterJobs) {
  submit(96);
  const JobId big = submit(192);  // 4 nodes: cannot fit beside the first
  const JobId tiny = submit(48);  // would fit, but FCFS never skips the head
  sched_.schedule_pass(0);
  EXPECT_EQ(executor_.static_starts.size(), 1u);
  EXPECT_TRUE(sched_.queue().contains(big));
  EXPECT_TRUE(sched_.queue().contains(tiny));
}

TEST_F(FcfsTest, HeadStartsAfterRelease) {
  const JobId a = submit(192);
  sched_.schedule_pass(0);
  const JobId b = submit(192);
  sched_.schedule_pass(0);
  EXPECT_TRUE(sched_.queue().contains(b));
  finish(jobs_, mgr_, a, 100);
  executor_.now = 100;
  sched_.schedule_pass(100);
  EXPECT_EQ(executor_.static_starts, (std::vector<JobId>{a, b}));
}

TEST_F(FcfsTest, NameIsFcfs) { EXPECT_STREQ(sched_.name(), "fcfs"); }

}  // namespace
}  // namespace sdsched

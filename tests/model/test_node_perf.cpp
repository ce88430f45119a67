#include "model/node_perf.h"

#include <gtest/gtest.h>

#include <cmath>

namespace sdsched {
namespace {

class NodePerfTest : public ::testing::Test {
 protected:
  NodePerfTest() : machine_(make_config()), model_(table2_profiles()) {}

  static MachineConfig make_config() {
    MachineConfig config;
    config.nodes = 2;
    config.node = NodeConfig{2, 24};
    return config;
  }

  JobId add_job(const char* app, int cpus, int node) {
    JobSpec spec;
    spec.id = kInvalidJob;
    spec.req_cpus = cpus;
    spec.app_profile = profile_index(app);
    const JobId id = jobs_.add(spec);
    Job& job = jobs_.at(id);
    job.state = JobState::Running;
    job.shares.push_back({node, cpus, cpus});
    machine_.add_share(0, id, node, cpus);
    return id;
  }

  Machine machine_;
  JobRegistry jobs_;
  NodePerfModel model_;
};

TEST_F(NodePerfTest, NoProfileIsNeutral) {
  JobSpec spec;
  spec.req_cpus = 48;
  spec.app_profile = -1;
  const JobId id = jobs_.add(spec);
  Job& job = jobs_.at(id);
  job.shares.push_back({0, 24, 48});
  machine_.add_share(0, id, 0, 24);
  EXPECT_DOUBLE_EQ(model_.multiplier(job, machine_, jobs_), 1.0);
}

TEST_F(NodePerfTest, FullAllocationAloneIsNeutral) {
  const JobId id = add_job("PILS", 48, 0);
  EXPECT_DOUBLE_EQ(model_.multiplier(jobs_.at(id), machine_, jobs_), 1.0);
}

TEST_F(NodePerfTest, StreamBarelySlowsWhenShrunk) {
  // STREAM at half cores: rate correction f^(alpha-1) with alpha=0.3 makes
  // the multiplier large (the linear model overestimated the loss).
  const JobId id = add_job("STREAM", 48, 0);
  Job& job = jobs_.at(id);
  machine_.resize_share(0, id, 0, 24);
  job.shares[0].cpus = 24;
  const double mult = model_.multiplier(job, machine_, jobs_);
  // Effective rate = 0.5 * mult = 0.5^0.3 ~ 0.812.
  EXPECT_NEAR(0.5 * mult, std::pow(0.5, 0.3), 1e-9);
  EXPECT_GT(mult, 1.5);
}

TEST_F(NodePerfTest, PilsScalesLinearly) {
  const JobId id = add_job("PILS", 48, 0);
  Job& job = jobs_.at(id);
  machine_.resize_share(0, id, 0, 24);
  job.shares[0].cpus = 24;
  EXPECT_NEAR(model_.multiplier(job, machine_, jobs_), 1.0, 1e-9);
}

TEST_F(NodePerfTest, TwoStreamsContendOnBandwidth) {
  const JobId a = add_job("STREAM", 24, 0);
  const JobId b = add_job("STREAM", 24, 0);
  const double mult_shared = model_.multiplier(jobs_.at(a), machine_, jobs_);
  machine_.remove_share(0, b, 0);
  jobs_.at(b).shares.clear();
  const double mult_alone = model_.multiplier(jobs_.at(a), machine_, jobs_);
  EXPECT_LT(mult_shared, mult_alone);
}

TEST_F(NodePerfTest, PilsPlusStreamBarelyContend) {
  // The paper's real-run story: a compute-bound guest exploits cores a
  // memory-bound owner cannot use, with little mutual damage.
  const JobId stream = add_job("STREAM", 24, 0);
  const JobId pils = add_job("PILS", 24, 0);
  const double pils_mult = model_.multiplier(jobs_.at(pils), machine_, jobs_);
  EXPECT_GT(pils_mult, 0.93);  // compute job barely notices
  const double stream_mult = model_.multiplier(jobs_.at(stream), machine_, jobs_);
  EXPECT_GT(stream_mult, 0.9);  // below its solo baseline but mild
}

TEST_F(NodePerfTest, OwnSaturationNotDoubleCharged) {
  // STREAM saturates bandwidth alone on a full node; its baseline already
  // includes that, so the multiplier must not re-penalize it.
  const JobId id = add_job("STREAM", 48, 0);
  const double mult = model_.multiplier(jobs_.at(id), machine_, jobs_);
  EXPECT_DOUBLE_EQ(mult, 1.0);
}

TEST_F(NodePerfTest, MultiNodeAveragesContention) {
  // Guest on two nodes: one shared with STREAM, one with PILS.
  JobSpec spec;
  spec.req_cpus = 48;
  spec.app_profile = profile_index("CoreNeuron");
  const JobId guest = jobs_.add(spec);
  add_job("STREAM", 24, 0);
  add_job("PILS", 24, 1);
  // Re-fetch after the adds above: the registry may reallocate its storage.
  Job& job = jobs_.at(guest);
  job.state = JobState::Running;
  job.shares.push_back({0, 24, 24});
  job.shares.push_back({1, 24, 24});
  machine_.add_share(0, guest, 0, 24);
  machine_.add_share(0, guest, 1, 24);
  const double mult = model_.multiplier(job, machine_, jobs_);
  EXPECT_GT(mult, 0.7);
  EXPECT_LE(mult, 1.05);
}

}  // namespace
}  // namespace sdsched

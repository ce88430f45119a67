#include "drom/node_manager.h"

#include <gtest/gtest.h>

namespace sdsched {
namespace {

class NodeManagerTest : public ::testing::Test {
 protected:
  NodeManagerTest() : machine_(make_config()), mgr_(machine_, jobs_, drom_) {}

  static MachineConfig make_config() {
    MachineConfig config;
    config.nodes = 4;
    config.node = NodeConfig{2, 24};
    return config;
  }

  JobId add_job(int req_cpus, MalleabilityClass cls = MalleabilityClass::Malleable) {
    JobSpec spec;
    spec.req_cpus = req_cpus;
    spec.req_nodes = nodes_for(req_cpus, 48);
    spec.malleability = cls;
    const JobId id = jobs_.add(spec);
    jobs_.at(id).state = JobState::Running;
    return id;
  }

  Machine machine_;
  JobRegistry jobs_;
  DromRegistry drom_;
  NodeManager mgr_;
};

TEST_F(NodeManagerTest, StaticStartSetsSharesAndMasks) {
  const JobId id = add_job(96);
  mgr_.start_static(0, id, {0, 1});
  const Job& job = jobs_.at(id);
  ASSERT_EQ(job.shares.size(), 2u);
  EXPECT_EQ(job.shares[0].cpus, 48);
  EXPECT_EQ(job.shares[0].static_cpus, 48);
  EXPECT_EQ(machine_.busy_cores(), 96);
  ASSERT_TRUE(mgr_.mask(id, 0).has_value());
  ASSERT_TRUE(mgr_.mask(id, 1).has_value());
  EXPECT_EQ(mgr_.mask(id, 0)->total(), 48);
  EXPECT_FALSE(mgr_.mask(id, 2).has_value());
}

TEST_F(NodeManagerTest, StaticStartBalancedSplit) {
  const JobId id = add_job(50);
  mgr_.start_static(0, id, {0, 1});
  const Job& job = jobs_.at(id);
  EXPECT_EQ(job.shares[0].cpus, 25);
  EXPECT_EQ(job.shares[1].cpus, 25);
  EXPECT_EQ(machine_.busy_cores(), 50);
  EXPECT_EQ(machine_.free_node_count(), 2);  // both nodes blocked regardless
}

TEST_F(NodeManagerTest, GuestStartShrinksMate) {
  const JobId mate = add_job(96);
  mgr_.start_static(0, mate, {0, 1});
  const JobId guest = add_job(96);

  const std::vector<SharePlan> plan{
      {0, mate, 24, 24, 48},
      {1, mate, 24, 24, 48},
  };
  const auto affected = mgr_.start_guest(10, guest, plan);
  EXPECT_EQ(affected, (std::vector<JobId>{mate}));

  const Job& m = jobs_.at(mate);
  const Job& g = jobs_.at(guest);
  EXPECT_EQ(m.shares[0].cpus, 24);
  EXPECT_EQ(m.shares[0].static_cpus, 48);
  EXPECT_EQ(g.shares[0].cpus, 24);
  EXPECT_EQ(g.shares[0].static_cpus, 48);
  EXPECT_TRUE(g.started_as_guest);
  EXPECT_TRUE(m.ever_mate);
  EXPECT_EQ(m.guests, (std::vector<JobId>{guest}));
  EXPECT_EQ(g.mates, (std::vector<JobId>{mate}));
  EXPECT_EQ(machine_.busy_cores(), 96);
  EXPECT_EQ(machine_.node(0).occupant_count(), 2u);
  // DROM masks reflect the socket split: one socket each (Listing 3).
  EXPECT_EQ(mgr_.mask(mate, 0)->total(), 24);
  EXPECT_EQ(mgr_.mask(guest, 0)->total(), 24);
  EXPECT_EQ(mgr_.mask(mate, 0)->cores_per_socket, (std::vector<int>{24, 0}));
  EXPECT_EQ(mgr_.mask(guest, 0)->cores_per_socket, (std::vector<int>{0, 24}));
  EXPECT_EQ(drom_.shrink_ops(), 2u);
  EXPECT_EQ(drom_.expand_ops(), 0u);
}

TEST_F(NodeManagerTest, GuestEndRestoresMate) {
  const JobId mate = add_job(96);
  mgr_.start_static(0, mate, {0, 1});
  const JobId guest = add_job(96);
  mgr_.start_guest(10, guest, {{0, mate, 24, 24, 48}, {1, mate, 24, 24, 48}});

  jobs_.at(guest).state = JobState::Completed;
  const auto affected = mgr_.finish_job(20, guest);
  EXPECT_EQ(affected, (std::vector<JobId>{mate}));
  const Job& m = jobs_.at(mate);
  EXPECT_EQ(m.shares[0].cpus, 48);  // expanded back to static
  EXPECT_EQ(m.shares[1].cpus, 48);
  EXPECT_TRUE(m.guests.empty());
  EXPECT_EQ(machine_.node(0).occupant_count(), 1u);
  EXPECT_EQ(machine_.busy_cores(), 96);
  EXPECT_FALSE(mgr_.mask(guest, 0).has_value());
  EXPECT_EQ(mgr_.mask(mate, 0)->total(), 48);
  EXPECT_EQ(drom_.expand_ops(), 2u);
}

TEST_F(NodeManagerTest, MateEndsEarlyGuestExpands) {
  const JobId mate = add_job(96);
  mgr_.start_static(0, mate, {0, 1});
  const JobId guest = add_job(96);
  mgr_.start_guest(10, guest, {{0, mate, 24, 24, 48}, {1, mate, 24, 24, 48}});

  jobs_.at(mate).state = JobState::Completed;
  const auto affected = mgr_.finish_job(20, mate);
  EXPECT_EQ(affected, (std::vector<JobId>{guest}));
  const Job& g = jobs_.at(guest);
  EXPECT_EQ(g.shares[0].cpus, 48);  // took the freed cores, up to static
  EXPECT_EQ(g.shares[1].cpus, 48);
  EXPECT_EQ(machine_.busy_cores(), 96);
  EXPECT_EQ(machine_.free_node_count(), 2);  // nodes still held by guest
  EXPECT_TRUE(g.mates.empty());
}

TEST_F(NodeManagerTest, MoldableGuestDoesNotExpand) {
  const JobId mate = add_job(48);
  mgr_.start_static(0, mate, {0});
  const JobId guest = add_job(48, MalleabilityClass::Moldable);
  mgr_.start_guest(10, guest, {{0, mate, 24, 24, 48}});

  jobs_.at(mate).state = JobState::Completed;
  mgr_.finish_job(20, mate);
  const Job& g = jobs_.at(guest);
  EXPECT_EQ(g.shares[0].cpus, 24);  // keeps its shape
  EXPECT_EQ(machine_.node(0).free_cores(), 24);
}

TEST_F(NodeManagerTest, ExpansionCappedAtStaticShare) {
  // Guest with a small static need never grows beyond it.
  const JobId mate = add_job(48);
  mgr_.start_static(0, mate, {0});
  const JobId guest = add_job(20);
  mgr_.start_guest(10, guest, {{0, mate, 20, 28, 20}});

  jobs_.at(mate).state = JobState::Completed;
  mgr_.finish_job(20, mate);
  EXPECT_EQ(jobs_.at(guest).shares[0].cpus, 20);
  EXPECT_EQ(machine_.node(0).free_cores(), 28);
}

TEST_F(NodeManagerTest, FinishLastOccupantFreesNode) {
  const JobId mate = add_job(48);
  mgr_.start_static(0, mate, {0});
  const JobId guest = add_job(48);
  mgr_.start_guest(10, guest, {{0, mate, 24, 24, 48}});

  jobs_.at(mate).state = JobState::Completed;
  mgr_.finish_job(20, mate);
  jobs_.at(guest).state = JobState::Completed;
  mgr_.finish_job(30, guest);
  EXPECT_EQ(machine_.free_node_count(), 4);
  EXPECT_EQ(machine_.busy_cores(), 0);
  EXPECT_FALSE(mgr_.mask(mate, 0).has_value());
  EXPECT_FALSE(mgr_.mask(guest, 0).has_value());
}

TEST_F(NodeManagerTest, GuestOnFreeNodeIsOwner) {
  const JobId mate = add_job(48);
  mgr_.start_static(0, mate, {0});
  const JobId guest = add_job(96);
  // Plan mixing one mate node and one free node (include_free_nodes).
  mgr_.start_guest(10, guest, {{0, mate, 24, 24, 48}, {1, kInvalidJob, 48, 0, 48}});
  EXPECT_EQ(machine_.node(1).occupant_count(), 1u);
  EXPECT_EQ(machine_.node(1).occupant(guest)->cpus, 48);
  EXPECT_EQ(machine_.node(1).used_cores(), 48);
  EXPECT_EQ(jobs_.at(guest).mates, (std::vector<JobId>{mate}));
}

TEST_F(NodeManagerTest, CoreConservationThroughChurn) {
  // Run a start/shrink/finish cycle and verify no cores leak, and that every
  // occupant's derived mask holds exactly its cores after each step.
  const auto expect_masks_match = [this](const char* step) {
    SCOPED_TRACE(step);
    for (int id = 0; id < machine_.node_count(); ++id) {
      for (const auto& occ : machine_.node(id).occupants()) {
        const auto mask = mgr_.mask(occ.job, id);
        ASSERT_TRUE(mask.has_value()) << "job " << occ.job << " node " << id;
        EXPECT_EQ(mask->total(), occ.cpus) << "job " << occ.job << " node " << id;
      }
    }
  };
  const JobId a = add_job(96);
  mgr_.start_static(0, a, {0, 1});
  expect_masks_match("static a");
  const JobId b = add_job(48);
  mgr_.start_static(0, b, {2});
  expect_masks_match("static b");
  const JobId g = add_job(96);
  mgr_.start_guest(5, g, {{0, a, 24, 24, 48}, {1, a, 24, 24, 48}});
  expect_masks_match("guest g");
  EXPECT_EQ(machine_.busy_cores(), 96 + 48);

  jobs_.at(g).state = JobState::Completed;
  mgr_.finish_job(15, g);
  expect_masks_match("finish g");
  EXPECT_EQ(machine_.busy_cores(), 96 + 48);

  jobs_.at(a).state = JobState::Completed;
  mgr_.finish_job(25, a);
  expect_masks_match("finish a");
  jobs_.at(b).state = JobState::Completed;
  mgr_.finish_job(30, b);
  expect_masks_match("finish b");
  EXPECT_EQ(machine_.busy_cores(), 0);
  EXPECT_EQ(machine_.free_node_count(), 4);
}

}  // namespace
}  // namespace sdsched

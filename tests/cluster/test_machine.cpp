#include "cluster/machine.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace sdsched {
namespace {

Machine make_machine(int nodes = 4) {
  MachineConfig config;
  config.nodes = nodes;
  config.node = NodeConfig{2, 24};
  return Machine(config);
}

TEST(Machine, InitialGeometry) {
  const Machine machine = make_machine(4);
  EXPECT_EQ(machine.node_count(), 4);
  EXPECT_EQ(machine.cores_per_node(), 48);
  EXPECT_EQ(machine.total_cores(), 192);
  EXPECT_EQ(machine.free_node_count(), 4);
  EXPECT_EQ(machine.busy_cores(), 0);
  EXPECT_EQ(machine.occupied_nodes(), 0);
}

TEST(Machine, RejectsEmptyGeometry) {
  for (int field = 0; field < 3; ++field) {
    MachineConfig config;
    config.nodes = 4;
    config.node = NodeConfig{2, 24};
    int& value = field == 0 ? config.nodes
                 : field == 1 ? config.node.sockets
                              : config.node.cores_per_socket;
    for (const int bad : {0, -3}) {
      value = bad;
      EXPECT_THROW(Machine{config}, std::invalid_argument) << "field " << field << " = " << bad;
    }
  }
}

TEST(Machine, RejectsOutOfRangeAttributeOverride) {
  for (const int bad : {4, -1}) {
    MachineConfig config;
    config.nodes = 4;
    config.node = NodeConfig{2, 24};
    config.attribute_overrides = {{1, NodeAttributes{}}, {bad, NodeAttributes{}}};
    try {
      const Machine machine{config};
      ADD_FAILURE() << "override for node " << bad << " was silently dropped";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), "Machine: attribute_overrides names node " +
                                           std::to_string(bad) +
                                           ", outside the 4-node machine");
    }
  }
}

TEST(Machine, FindFreeNodesLowestFirst) {
  Machine machine = make_machine(4);
  const auto nodes = machine.find_free_nodes(2);
  ASSERT_TRUE(nodes.has_value());
  EXPECT_EQ(*nodes, (std::vector<int>{0, 1}));
  EXPECT_FALSE(machine.find_free_nodes(5).has_value());
}

TEST(Machine, AllocateExclusiveTracksLoad) {
  Machine machine = make_machine(4);
  EXPECT_TRUE(machine.allocate_exclusive(0, 1, {0, 1}, {48, 48}));
  EXPECT_EQ(machine.free_node_count(), 2);
  EXPECT_EQ(machine.busy_cores(), 96);
  EXPECT_EQ(machine.occupied_nodes(), 2);
  EXPECT_DOUBLE_EQ(machine.utilization(), 0.5);
}

TEST(Machine, AllocateExclusivePartialCpus) {
  Machine machine = make_machine(2);
  // A 50-cpu job on 2 nodes holds 25+25 but blocks both nodes.
  EXPECT_TRUE(machine.allocate_exclusive(0, 1, {0, 1}, {25, 25}));
  EXPECT_EQ(machine.busy_cores(), 50);
  EXPECT_EQ(machine.free_node_count(), 0);
}

TEST(Machine, AllocateExclusiveRefusesOccupied) {
  Machine machine = make_machine(2);
  ASSERT_TRUE(machine.allocate_exclusive(0, 1, {0}, {48}));
  EXPECT_FALSE(machine.allocate_exclusive(0, 2, {0, 1}, {48, 48}));
  // Failure must not leak occupancy onto node 1.
  EXPECT_EQ(machine.free_node_count(), 1);
  EXPECT_EQ(machine.busy_cores(), 48);
}

TEST(Machine, SharesAndRelease) {
  Machine machine = make_machine(2);
  machine.allocate_exclusive(0, 1, {0}, {48});
  EXPECT_TRUE(machine.resize_share(10, 1, 0, 24));
  EXPECT_EQ(machine.busy_cores(), 24);
  EXPECT_TRUE(machine.add_share(10, 2, 0, 24));
  EXPECT_EQ(machine.busy_cores(), 48);
  EXPECT_EQ(machine.free_node_count(), 1);

  EXPECT_EQ(machine.remove_share(20, 2, 0), 24);
  EXPECT_EQ(machine.busy_cores(), 24);
  EXPECT_EQ(machine.free_node_count(), 1);  // owner still there
  EXPECT_EQ(machine.remove_share(30, 1, 0), 24);
  EXPECT_EQ(machine.free_node_count(), 2);
  EXPECT_EQ(machine.busy_cores(), 0);
}

TEST(Machine, CoreSecondsIntegration) {
  Machine machine = make_machine(1);
  machine.allocate_exclusive(0, 1, {0}, {48});
  EXPECT_EQ(machine.remove_share(100, 1, 0), 48);
  machine.finalize_energy(100);
  EXPECT_DOUBLE_EQ(machine.core_seconds(), 4800.0);
}

TEST(Machine, EnergyAccumulatesIdleAndBusy) {
  MachineConfig config;
  config.nodes = 2;
  config.node = NodeConfig{2, 24};
  config.energy.idle_watts_per_node = 100.0;
  config.energy.watts_per_busy_core = 2.0;
  Machine machine(config);
  machine.allocate_exclusive(0, 1, {0}, {48});
  EXPECT_EQ(machine.remove_share(50, 1, 0), 48);
  machine.finalize_energy(100);
  // [0,50): 2 nodes idle draw + 48 busy cores; [50,100): idle only.
  const double expected = (2 * 100.0 + 48 * 2.0) * 50 + (2 * 100.0) * 50;
  EXPECT_DOUBLE_EQ(machine.energy().joules(), expected);
}

// Reference-model tests (and warm-started simulations) rebuild a running
// population by replaying allocations with *historical*, non-monotonic start
// times. The machine must not abort on a backdated call, and its cumulative
// core-second / energy totals must match the same calls replayed in
// chronological order.
struct AllocOp {
  enum class Kind { Allocate, AddShare, ResizeShare, RemoveShare };
  Kind kind = Kind::Allocate;
  SimTime time = 0;
  JobId job = 0;
  std::vector<int> nodes;
  std::vector<int> cpus;
};

void apply_ops(Machine& machine, const std::vector<AllocOp>& ops, SimTime end) {
  for (const auto& op : ops) {
    switch (op.kind) {
      case AllocOp::Kind::Allocate:
        ASSERT_TRUE(machine.allocate_exclusive(op.time, op.job, op.nodes, op.cpus));
        break;
      case AllocOp::Kind::AddShare:
        ASSERT_TRUE(machine.add_share(op.time, op.job, op.nodes[0], op.cpus[0]));
        break;
      case AllocOp::Kind::ResizeShare:
        ASSERT_TRUE(machine.resize_share(op.time, op.job, op.nodes[0], op.cpus[0]));
        break;
      case AllocOp::Kind::RemoveShare:
        ASSERT_GT(machine.remove_share(op.time, op.job, op.nodes[0]), 0);
        break;
    }
  }
  machine.finalize_energy(end);
}

void expect_matches_forward_replay(const MachineConfig& config,
                                   const std::vector<AllocOp>& ops, SimTime end) {
  Machine machine(config);
  apply_ops(machine, ops, end);

  std::vector<AllocOp> sorted = ops;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const AllocOp& a, const AllocOp& b) { return a.time < b.time; });
  Machine oracle(config);
  apply_ops(oracle, sorted, end);

  EXPECT_DOUBLE_EQ(machine.core_seconds(), oracle.core_seconds());
  EXPECT_DOUBLE_EQ(machine.energy().joules(), oracle.energy().joules());
  EXPECT_EQ(machine.busy_cores(), oracle.busy_cores());
  EXPECT_EQ(machine.occupied_nodes(), oracle.occupied_nodes());
}

TEST(Machine, BackdatedAllocationMatchesForwardReplay) {
  MachineConfig config;
  config.nodes = 4;
  config.node = NodeConfig{2, 24};
  config.energy.idle_watts_per_node = 100.0;
  config.energy.watts_per_busy_core = 4.5;
  // Allocate at t=2000, then a start backdated to t=500 (historical).
  const std::vector<AllocOp> ops = {
      {AllocOp::Kind::Allocate, 2000, 1, {0, 1}, {48, 48}},
      {AllocOp::Kind::Allocate, 500, 2, {2}, {48}},
  };
  expect_matches_forward_replay(config, ops, 3000);
}

TEST(Machine, BackdatedAllocationMatchesForwardReplayWithPoweredDownIdles) {
  MachineConfig config;
  config.nodes = 4;
  config.node = NodeConfig{2, 24};
  config.energy.idle_watts_per_node = 100.0;
  config.energy.watts_per_busy_core = 4.5;
  config.energy.power_down_idle_nodes = true;  // exercises the occupied-node credit
  const std::vector<AllocOp> ops = {
      {AllocOp::Kind::Allocate, 2000, 1, {0, 1}, {48, 48}},
      {AllocOp::Kind::Allocate, 500, 2, {2}, {24}},
      {AllocOp::Kind::Allocate, 1200, 3, {3}, {48}},
  };
  expect_matches_forward_replay(config, ops, 5000);
}

TEST(Machine, BackdatedHistoryWithReleaseMatchesForwardReplay) {
  MachineConfig config;
  config.nodes = 4;
  config.node = NodeConfig{2, 24};
  config.energy.idle_watts_per_node = 100.0;
  config.energy.watts_per_busy_core = 4.5;
  // A short historical job (started *and* finished behind the frontier) is
  // injected after a live allocation already advanced the clock to t=2000.
  const std::vector<AllocOp> ops = {
      {AllocOp::Kind::Allocate, 2000, 1, {0, 1}, {48, 48}},
      {AllocOp::Kind::Allocate, 500, 2, {2}, {48}},
      {AllocOp::Kind::RemoveShare, 800, 2, {2}, {}},
  };
  expect_matches_forward_replay(config, ops, 3000);
}

TEST(Machine, BackdatedSharedNodeChurnMatchesForwardReplay) {
  MachineConfig config;
  config.nodes = 4;
  config.node = NodeConfig{2, 24};
  config.energy.idle_watts_per_node = 100.0;
  config.energy.watts_per_busy_core = 4.5;
  // An entire co-scheduling episode on node 2 — owner placed, shrunk, guest
  // added and removed, owner removed — reconstructed behind a frontier already
  // advanced to t=2000 by a live allocation. Sorted by time the same calls
  // form a valid chronological history, so the oracle replay is well-defined.
  const std::vector<AllocOp> ops = {
      {AllocOp::Kind::Allocate, 2000, 1, {0, 1}, {48, 48}},
      {AllocOp::Kind::AddShare, 300, 2, {2}, {24}},
      {AllocOp::Kind::ResizeShare, 700, 2, {2}, {12}},
      {AllocOp::Kind::AddShare, 900, 3, {2}, {12}},
      {AllocOp::Kind::RemoveShare, 1100, 3, {2}, {}},
      {AllocOp::Kind::RemoveShare, 1500, 2, {2}, {}},
  };
  for (const bool power_down : {false, true}) {
    SCOPED_TRACE(power_down ? "power_down_idle_nodes" : "always_on");
    config.energy.power_down_idle_nodes = power_down;
    expect_matches_forward_replay(config, ops, 3000);
  }
}

TEST(Machine, FreedNodeIsReusable) {
  Machine machine = make_machine(1);
  machine.allocate_exclusive(0, 1, {0}, {48});
  EXPECT_EQ(machine.remove_share(10, 1, 0), 48);
  const auto nodes = machine.find_free_nodes(1);
  ASSERT_TRUE(nodes.has_value());
  EXPECT_TRUE(machine.allocate_exclusive(10, 2, *nodes, {48}));
}

}  // namespace
}  // namespace sdsched

#include "cluster/node.h"

#include <gtest/gtest.h>

namespace sdsched {
namespace {

Node make_node(int id = 0) { return Node(id, NodeConfig{2, 24}); }

TEST(Node, GeometryFromConfig) {
  const Node node = make_node(3);
  EXPECT_EQ(node.id(), 3);
  EXPECT_EQ(node.total_cores(), 48);
  EXPECT_EQ(node.sockets(), 2);
  EXPECT_EQ(node.cores_per_socket(), 24);
  EXPECT_TRUE(node.empty());
  EXPECT_EQ(node.free_cores(), 48);
}

TEST(Node, AddAndRemoveOccupant) {
  Node node = make_node();
  EXPECT_TRUE(node.add(1, 48));
  EXPECT_FALSE(node.empty());
  EXPECT_EQ(node.used_cores(), 48);
  EXPECT_EQ(node.free_cores(), 0);
  EXPECT_TRUE(node.holds(1));
  EXPECT_EQ(node.remove(1), 48);
  EXPECT_TRUE(node.empty());
  EXPECT_EQ(node.remove(1), 0);
}

TEST(Node, RejectsOvercommit) {
  Node node = make_node();
  EXPECT_TRUE(node.add(1, 40));
  EXPECT_FALSE(node.add(2, 9));
  EXPECT_TRUE(node.add(2, 8));
  EXPECT_EQ(node.used_cores(), 48);
}

TEST(Node, RejectsDuplicateJob) {
  Node node = make_node();
  EXPECT_TRUE(node.add(1, 10));
  EXPECT_FALSE(node.add(1, 10));
}

TEST(Node, RejectsZeroCpus) {
  Node node = make_node();
  EXPECT_FALSE(node.add(1, 0));
}

TEST(Node, SharedWhenTwoOccupants) {
  Node node = make_node();
  node.add(1, 24);
  EXPECT_EQ(node.occupant_count(), 1u);
  node.add(2, 24);
  EXPECT_EQ(node.occupant_count(), 2u);
  const auto occ = node.occupant(2);
  ASSERT_TRUE(occ.has_value());
  EXPECT_EQ(occ->job, 2u);
  EXPECT_EQ(occ->cpus, 24);
  EXPECT_FALSE(node.occupant(99).has_value());
}

TEST(Node, ResizeWithinCapacity) {
  Node node = make_node();
  node.add(1, 48);
  EXPECT_TRUE(node.resize(1, 24));
  EXPECT_EQ(node.free_cores(), 24);
  EXPECT_TRUE(node.add(2, 24));
  // Owner cannot grow back past the guest.
  EXPECT_FALSE(node.resize(1, 25));
  EXPECT_TRUE(node.resize(1, 24));
}

TEST(Node, ResizeRejectsInvalid) {
  Node node = make_node();
  node.add(1, 10);
  EXPECT_FALSE(node.resize(1, 0));
  EXPECT_FALSE(node.resize(2, 5));
  EXPECT_FALSE(node.resize(1, 49));
}

}  // namespace
}  // namespace sdsched

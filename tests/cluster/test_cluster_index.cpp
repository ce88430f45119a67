// Property test: the event-driven ClusterStateIndex must agree with a
// brute-force node scan after arbitrary start/guest/finish/reconfigure
// sequences driven through the same NodeManager the kernel uses.
#include "cluster/cluster_state_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "../scoped_env.h"
#include "drom/node_manager.h"

namespace sdsched {
namespace {

/// 12 nodes, the last four a highmem block.
MachineConfig block_machine() {
  MachineConfig mc;
  mc.nodes = 12;
  mc.node = NodeConfig{2, 4};  // 8 cores per node keeps plans interesting
  NodeAttributes highmem;
  highmem.memory_gb = 384;
  for (int id = 8; id < 12; ++id) mc.attribute_overrides.emplace_back(id, highmem);
  return mc;
}

/// `nodes` nodes with three attribute classes interleaved across the id
/// space, so constrained picks and per-class release maps span every
/// bitmap word — including a partly used last word when `nodes` is not a
/// multiple of 64.
MachineConfig interleaved_machine(int nodes) {
  MachineConfig mc;
  mc.nodes = nodes;
  mc.node = NodeConfig{2, 4};
  NodeAttributes highmem;
  highmem.memory_gb = 384;
  NodeAttributes fastnet;
  fastnet.network = "ib";
  for (int id = 0; id < nodes; ++id) {
    if (id % 5 == 1) mc.attribute_overrides.emplace_back(id, highmem);
    if (id % 5 == 3) mc.attribute_overrides.emplace_back(id, fastnet);
  }
  return mc;
}

/// One attribute class per node (memory grows with the id, every fifth node
/// on the "ib" network): with more than 64 classes there is no class mask,
/// and busy_groups() merges every class's release map.
MachineConfig per_node_class_machine(int nodes) {
  MachineConfig mc;
  mc.nodes = nodes;
  mc.node = NodeConfig{2, 4};
  for (int id = 0; id < nodes; ++id) {
    NodeAttributes attrs;
    attrs.memory_gb = 96 + id;
    if (id % 5 == 3) attrs.network = "ib";
    mc.attribute_overrides.emplace_back(id, attrs);
  }
  return mc;
}

struct Cluster {
  explicit Cluster(const MachineConfig& mc = block_machine()) {
    machine.emplace(mc);
    index.emplace(*machine, jobs);
  }

  JobId add_running(SimTime now, int req_nodes, SimTime runtime) {
    JobSpec spec;
    spec.submit = now;
    spec.req_cpus = req_nodes * machine->cores_per_node();
    spec.req_nodes = req_nodes;
    spec.req_time = runtime;
    spec.base_runtime = runtime;
    const JobId id = jobs.add(spec);
    Job& job = jobs.at(id);
    job.state = JobState::Running;
    job.start_time = now;
    job.predicted_end = now + runtime;
    return id;
  }

  JobRegistry jobs;
  DromRegistry drom;
  std::optional<Machine> machine;
  std::optional<ClusterStateIndex> index;
  std::vector<JobId> running;
};

/// The historical full-scan profile groups, for busy_groups comparison.
std::map<SimTime, int> scan_groups(const Machine& machine, const JobRegistry& jobs,
                                   SimTime now) {
  std::map<SimTime, int> frees;
  for (int id = 0; id < machine.node_count(); ++id) {
    const Node& node = machine.node(id);
    if (node.empty()) continue;
    SimTime free_at = now + 1;
    for (const auto& occ : node.occupants()) {
      free_at = std::max(free_at, jobs.at(occ.job).predicted_end);
    }
    ++frees[free_at];
  }
  return frees;
}

/// scan_groups() restricted to nodes satisfying `constraints`.
std::map<SimTime, int> scan_groups_for(const Machine& machine, const JobRegistry& jobs,
                                       const JobConstraints& constraints, SimTime now) {
  std::map<SimTime, int> frees;
  for (int id = 0; id < machine.node_count(); ++id) {
    const Node& node = machine.node(id);
    if (node.empty() || !node_satisfies(node.attributes(), constraints)) continue;
    SimTime free_at = now + 1;
    for (const auto& occ : node.occupants()) {
      free_at = std::max(free_at, jobs.at(occ.job).predicted_end);
    }
    ++frees[free_at];
  }
  return frees;
}

std::uint64_t xorshift(std::uint64_t& state, std::uint64_t bound) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state % bound;
}

/// `want` distinct free nodes sampled at random (lowest-first picks would
/// leave the high words untouched), or empty when the sample falls short.
std::vector<int> random_free_nodes(const Machine& machine, std::uint64_t& state, int want) {
  std::vector<int> out;
  int tries = 0;
  while (static_cast<int>(out.size()) < want && tries++ < 400) {
    const int id =
        static_cast<int>(xorshift(state, static_cast<std::uint64_t>(machine.node_count())));
    if (!machine.node(id).empty()) continue;
    if (std::find(out.begin(), out.end(), id) != out.end()) continue;
    out.push_back(id);
  }
  if (static_cast<int>(out.size()) < want) out.clear();
  return out;
}

/// Every index answer against its brute-force counterpart at `now`.
void expect_matches_brute_force(const Cluster& c, SimTime now, std::uint64_t& state) {
  const ClusterStateIndex& index = *c.index;
  const Machine& machine = *c.machine;
  std::string diag;
  ASSERT_TRUE(index.check_consistent(&diag)) << diag;

  // busy_groups must reproduce the historical full scan, clamp included.
  std::vector<std::pair<SimTime, int>> groups;
  index.busy_groups(now, groups);
  using Groups = std::map<SimTime, int>;
  ASSERT_EQ(Groups(groups.begin(), groups.end()), scan_groups(machine, c.jobs, now));
  ASSERT_TRUE(std::is_sorted(groups.begin(), groups.end()));

  JobConstraints highmem;
  highmem.min_memory_gb = 128;
  JobConstraints fastnet;
  fastnet.required_network = "ib";
  JobConstraints contiguous;
  contiguous.contiguous = true;
  for (const JobConstraints* constraints : {&highmem, &fastnet}) {
    ASSERT_EQ(index.eligible_node_count(*constraints),
              machine.eligible_node_count(*constraints));
    if (index.class_count() <= 64) {
      index.busy_groups_for_mask(index.eligible_class_mask(*constraints), now, groups);
      ASSERT_EQ(Groups(groups.begin(), groups.end()),
                scan_groups_for(machine, c.jobs, *constraints, now));
    }
  }

  const int nodes = machine.node_count();
  const int probes[] = {1, 2, 1 + static_cast<int>(xorshift(state, 8)), std::max(1, nodes / 3),
                        nodes};
  for (const int count : probes) {
    ASSERT_EQ(index.find_free_nodes(count), machine.find_free_nodes(count)) << count;
    for (const JobConstraints* constraints : {&highmem, &fastnet, &contiguous}) {
      ASSERT_EQ(index.find_free_nodes(count, constraints),
                machine.find_free_nodes(count, constraints))
          << count;
    }
  }
}

TEST(ClusterStateIndex, EmptyMachineIsConsistent) {
  Cluster c;
  std::string diag;
  EXPECT_TRUE(c.index->check_consistent(&diag)) << diag;
  EXPECT_EQ(c.machine->occupied_nodes(), 0);
  EXPECT_EQ(c.index->version(), 0u);

  std::vector<std::pair<SimTime, int>> groups;
  c.index->busy_groups(100, groups);
  EXPECT_TRUE(groups.empty());
}

// SDSCHED_CROSSCHECK is read once, when the index is built: unset, empty
// or "0" is off, anything else on.
TEST(ClusterStateIndex, CrosscheckSwitchReadAtConstruction) {
  for (const char* off : {"", "0"}) {
    const testing_support::ScopedEnv env("SDSCHED_CROSSCHECK", off);
    EXPECT_FALSE(Cluster().index->crosscheck()) << "value '" << off << "'";
  }
  std::optional<Cluster> c;
  {
    const testing_support::ScopedEnv unset("SDSCHED_CROSSCHECK", std::nullopt);
    EXPECT_FALSE(Cluster().index->crosscheck());
    const testing_support::ScopedEnv on("SDSCHED_CROSSCHECK", "1");
    c.emplace();
  }
  EXPECT_TRUE(c->index->crosscheck()) << "the switch must outlive the variable";
}

// Under the switch every pick is compared against the machine scan: an
// index the machine changed behind its back throws instead of answering.
TEST(ClusterStateIndex, CrosscheckedPickThrowsOnStaleIndex) {
  const testing_support::ScopedEnv on("SDSCHED_CROSSCHECK", "1");
  Cluster c;
  NodeManager mgr(*c.machine, c.jobs, c.drom);
  EXPECT_EQ(*c.index->find_free_nodes(2), (std::vector<int>{0, 1}));

  c.machine->set_observer(nullptr);
  mgr.start_static(0, c.add_running(0, 1, 100), {0});
  c.machine->set_observer(&*c.index);
  EXPECT_THROW((void)c.index->find_free_nodes(2), std::logic_error);
}

TEST(ClusterStateIndex, EligibleCountsMatchMachinePartition) {
  Cluster c;
  JobConstraints highmem;
  highmem.min_memory_gb = 128;
  EXPECT_EQ(c.index->eligible_node_count(highmem), 4);
  EXPECT_EQ(c.index->eligible_node_count(highmem),
            c.machine->eligible_node_count(highmem));
  EXPECT_EQ(*c.index->find_free_nodes(4, &highmem), (std::vector<int>{8, 9, 10, 11}));

  NodeManager mgr(*c.machine, c.jobs, c.drom);
  const JobId id = c.add_running(0, 2, 100);
  mgr.start_static(0, id, {8, 9});
  EXPECT_EQ(*c.index->find_free_nodes(2, &highmem), (std::vector<int>{10, 11}));
  EXPECT_FALSE(c.index->find_free_nodes(3, &highmem).has_value());
  EXPECT_EQ(c.index->eligible_node_count(highmem), 4);  // eligibility is static
  std::string diag;
  EXPECT_TRUE(c.index->check_consistent(&diag)) << diag;
}

TEST(ClusterStateIndex, VersionBumpsOnlyOnRealChanges) {
  Cluster c;
  NodeManager mgr(*c.machine, c.jobs, c.drom);
  const JobId id = c.add_running(0, 1, 50);
  mgr.start_static(0, id, {0});
  const std::uint64_t v = c.index->version();
  EXPECT_GT(v, 0u);

  // A resize changes the node's core split but not its release time or
  // emptiness: the index must not pretend the world changed.
  ASSERT_TRUE(c.machine->resize_share(1, id, 0, 4));
  EXPECT_EQ(c.index->version(), v);

  // A predicted-end move is a real change.
  c.jobs.at(id).predicted_end += 25;
  c.index->on_predicted_end_changed(id);
  EXPECT_GT(c.index->version(), v);
  std::string diag;
  EXPECT_TRUE(c.index->check_consistent(&diag)) << diag;
}

// The SD scan ledger and cut-off cache key on mutation_serial alone, so
// every start and finish must move it before the MateRegistry hears of the
// job: an unchanged serial then also means an unchanged running population.
TEST(ClusterStateIndex, LifecycleStepsAdvanceMutationSerial) {
  Cluster c;
  NodeManager mgr(*c.machine, c.jobs, c.drom);
  std::uint64_t serial = c.index->mutation_serial();
  const auto advanced = [&] {
    const std::uint64_t before = serial;
    serial = c.index->mutation_serial();
    return serial > before;
  };

  const JobId mate = c.add_running(0, 1, 100);
  mgr.start_static(0, mate, {0});
  EXPECT_TRUE(advanced()) << "start_static";

  const JobId guest = c.add_running(10, 1, 50);
  mgr.start_guest(10, guest, {SharePlan{0, mate, 4, 4, 4}});
  EXPECT_TRUE(advanced()) << "start_guest beside a mate";

  const JobId borrower = c.add_running(10, 1, 50);
  mgr.start_guest(10, borrower, {SharePlan{1, kInvalidJob, 8, 0, 8}});
  EXPECT_TRUE(advanced()) << "start_guest on a free node";

  for (const JobId id : {guest, borrower, mate}) {
    c.jobs.at(id).state = JobState::Completed;
    mgr.finish_job(20, id);
    EXPECT_TRUE(advanced()) << "finish_job " << id;
  }
  EXPECT_EQ(c.machine->occupied_nodes(), 0);
}

TEST(ClusterStateIndex, BusyGroupsClampOverdueOccupants) {
  Cluster c;
  NodeManager mgr(*c.machine, c.jobs, c.drom);
  const JobId early = c.add_running(0, 1, 10);   // predicted end 10
  const JobId late = c.add_running(0, 1, 500);   // predicted end 500
  mgr.start_static(0, early, {0});
  mgr.start_static(0, late, {1});

  std::vector<std::pair<SimTime, int>> groups;
  c.index->busy_groups(50, groups);  // `early` is overdue at now=50
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (std::pair<SimTime, int>{51, 1}));
  EXPECT_EQ(groups[1], (std::pair<SimTime, int>{500, 1}));

  const auto expect = scan_groups(*c.machine, c.jobs, 50);
  const std::map<SimTime, int> got(groups.begin(), groups.end());
  EXPECT_EQ(got, expect);
}

/// Random start/finish/guest/stretch churn on one machine, every answer
/// checked against brute force after every step; then the machine drains
/// to empty, fills node by node, and drains again.
void random_lifecycle(const MachineConfig& mc, int steps) {
  Cluster c(mc);
  NodeManager mgr(*c.machine, c.jobs, c.drom);
  std::uint64_t state = 0x2545f4914f6cdd1dULL ^ static_cast<std::uint64_t>(mc.nodes);
  const auto finish = [&](JobId id, SimTime now) {
    c.jobs.at(id).state = JobState::Completed;
    c.jobs.at(id).end_time = now;
    mgr.finish_job(now, id);
  };

  SimTime now = 0;
  for (int step = 0; step < steps; ++step) {
    now += static_cast<SimTime>(xorshift(state, 20));
    const std::uint64_t op = xorshift(state, 10);
    if (op < 4) {
      // Static start on scattered free nodes.
      const int want = 1 + static_cast<int>(xorshift(state, 3));
      const auto nodes = random_free_nodes(*c.machine, state, want);
      if (!nodes.empty()) {
        const JobId id =
            c.add_running(now, want, 10 + static_cast<SimTime>(xorshift(state, 300)));
        mgr.start_static(now, id, nodes);
        c.running.push_back(id);
      }
    } else if (op < 6 && !c.running.empty()) {
      // Finish a random running job (owners leaving early expand survivors
      // through resize_share — the §4.3 unbalance path).
      const std::size_t pick = xorshift(state, c.running.size());
      const JobId id = c.running[pick];
      c.running.erase(c.running.begin() + static_cast<std::ptrdiff_t>(pick));
      finish(id, now);
    } else if (op < 8 && !c.running.empty()) {
      // Malleable guest start: shrink one mate on one of its nodes (free_at
      // moves without an emptiness flip).
      const JobId mate_id = c.running[xorshift(state, c.running.size())];
      const Job& mate_view = c.jobs.at(mate_id);
      if (!mate_view.malleable() || mate_view.shares.empty()) continue;
      const NodeShare share = mate_view.shares[xorshift(state, mate_view.shares.size())];
      if (share.cpus < 2) continue;
      const int give =
          1 + static_cast<int>(xorshift(state, static_cast<std::uint64_t>(share.cpus) - 1));
      // add_running may grow the registry: re-fetch the mate afterwards.
      const JobId guest_id =
          c.add_running(now, 1, 10 + static_cast<SimTime>(xorshift(state, 200)));
      SharePlan plan;
      plan.node = share.node;
      plan.mate = mate_id;
      plan.guest_cpus = give;
      plan.mate_kept_cpus = share.cpus - give;
      plan.guest_static_cpus = give;
      // Kernel order: stretch the mate's predicted end, notify, then the
      // node-level shrink + placement.
      c.jobs.at(mate_id).predicted_end += static_cast<SimTime>(xorshift(state, 100));
      c.index->on_predicted_end_changed(mate_id);
      mgr.start_guest(now, guest_id, {plan});
      c.running.push_back(guest_id);
    } else if (!c.running.empty()) {
      // Pure reconfigure: a mate stretch with no placement attached.
      const JobId id = c.running[xorshift(state, c.running.size())];
      c.jobs.at(id).predicted_end += static_cast<SimTime>(xorshift(state, 50));
      c.index->on_predicted_end_changed(id);
    }
    SCOPED_TRACE(testing::Message() << mc.nodes << " nodes, step " << step);
    expect_matches_brute_force(c, now, state);
    if (testing::Test::HasFatalFailure()) return;
  }
  EXPECT_FALSE(c.running.empty());  // the walk actually exercised occupancy

  // Drain to empty, fill every node, drain again.
  const auto drain = [&] {
    for (const JobId id : c.running) finish(id, now);
    c.running.clear();
    ASSERT_EQ(c.machine->free_node_count(), mc.nodes);
    ASSERT_EQ(c.machine->occupied_nodes(), 0);
    std::vector<std::pair<SimTime, int>> groups;
    c.index->busy_groups(now, groups);
    ASSERT_TRUE(groups.empty());
    expect_matches_brute_force(c, now, state);
  };
  SCOPED_TRACE(testing::Message() << mc.nodes << " nodes, drain/refill");
  drain();
  for (int id = 0; id < mc.nodes; ++id) {
    const JobId job = c.add_running(now, 1, 100 + id);
    mgr.start_static(now, job, {id});
    c.running.push_back(job);
  }
  ASSERT_EQ(c.machine->free_node_count(), 0);
  ASSERT_EQ(c.machine->occupied_nodes(), mc.nodes);
  ASSERT_FALSE(c.index->find_free_nodes(1).has_value());
  expect_matches_brute_force(c, now, state);
  now += 50;
  drain();
}

TEST(ClusterStateIndex, RandomizedLifecycleMatchesBruteForce) {
  random_lifecycle(block_machine(), 400);
  // 5 and 65 nodes leave the last bitmap word partly used; 5040 is Curie.
  random_lifecycle(interleaved_machine(5), 120);
  random_lifecycle(interleaved_machine(65), 120);
  // 70 one-node classes: past the 64-class mask limit.
  random_lifecycle(per_node_class_machine(70), 120);
  random_lifecycle(interleaved_machine(5040), 60);
  random_lifecycle(interleaved_machine(50000), 10);
}

}  // namespace
}  // namespace sdsched

// The class-partitioned free-run index must return exactly the node ids
// Machine::find_free_nodes returns — lowest-first picks, eligible-class
// filtering, earliest contiguous runs — through arbitrary allocate/release
// churn. Unit tests cover the run merge/split mechanics; the property test
// drives a heterogeneous cluster through a random lifecycle and probes
// every (constraints x contiguous x count) combination each step.
#include "cluster/free_node_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "../bench_scenes.h"
#include "cluster/cluster_state_index.h"
#include "drom/node_manager.h"

namespace sdsched {
namespace {

/// The contiguous pick of `count` ids from `classes`; empty when no run of
/// free nodes is long enough. Picks return the earliest adequate run, so
/// probing lengths pins down the run structure through the production API.
std::vector<int> span(const FreeNodeIndex& index, int count, const std::vector<int>& classes) {
  return index.pick(count, classes, /*contiguous=*/true).value_or(std::vector<int>{});
}

TEST(FreeNodeIndex, RunsMergeAndSplit) {
  // One class over ids 0..7.
  FreeNodeIndex index(std::vector<int>(8, 0), 1);
  EXPECT_EQ(index.free_count(), 8);
  EXPECT_EQ(span(index, 8, {0}), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));

  index.erase(3);  // split [0,8) -> [0,3) + [4,8)
  EXPECT_EQ(span(index, 3, {0}), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(span(index, 4, {0}), (std::vector<int>{4, 5, 6, 7}));
  EXPECT_TRUE(span(index, 5, {0}).empty());
  index.erase(0);  // trim the head: [1,3) + [4,8)
  EXPECT_EQ(span(index, 2, {0}), (std::vector<int>{1, 2}));
  EXPECT_EQ(span(index, 3, {0}), (std::vector<int>{4, 5, 6}));
  EXPECT_EQ(span(index, 4, {0}), (std::vector<int>{4, 5, 6, 7}));
  index.erase(7);  // trim the tail: [1,3) + [4,7)
  EXPECT_EQ(span(index, 3, {0}), (std::vector<int>{4, 5, 6}));
  EXPECT_TRUE(span(index, 4, {0}).empty());

  index.insert(3);  // bridge [1,3) + {3} + [4,7) -> [1,7)
  EXPECT_EQ(span(index, 6, {0}), (std::vector<int>{1, 2, 3, 4, 5, 6}));
  EXPECT_TRUE(span(index, 7, {0}).empty());
  EXPECT_EQ(index.free_count(), 6);

  std::vector<bool> is_free{false, true, true, true, true, true, true, false};
  std::string diag;
  EXPECT_TRUE(index.check_consistent(is_free, &diag)) << diag;
}

TEST(FreeNodeIndex, RunsNeverBridgeAcrossClasses) {
  // Ids 0,1 class 0; id 2 class 1; ids 3,4 class 0: the class-0 runs stay
  // split by the foreign id even when everything is free.
  FreeNodeIndex index({0, 0, 1, 0, 0}, 2);
  EXPECT_EQ(span(index, 2, {0}), (std::vector<int>{0, 1}));
  EXPECT_TRUE(span(index, 3, {0}).empty());  // class 0 alone has no 3-run
  EXPECT_EQ(span(index, 1, {1}), (std::vector<int>{2}));
  EXPECT_TRUE(span(index, 2, {1}).empty());

  // But a multi-class pick walks the union in id order: contiguous spans
  // may cross class boundaries.
  EXPECT_EQ(span(index, 5, {0, 1}), (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(*index.pick(3, {0}, /*contiguous=*/false), (std::vector<int>{0, 1, 3}));

  index.erase(0);  // the second class-0 run is the earliest adequate one now
  EXPECT_EQ(span(index, 2, {0}), (std::vector<int>{3, 4}));
}

// ---------------------------------------------------------------------------
// Property: ClusterStateIndex::find_free_nodes == Machine::find_free_nodes.
// ---------------------------------------------------------------------------

struct Cluster {
  Cluster() {
    MachineConfig mc;
    mc.nodes = 16;
    mc.node = NodeConfig{2, 4};
    NodeAttributes highmem;
    highmem.memory_gb = 384;
    NodeAttributes arm;
    arm.arch = "aarch64";
    // Interleave the classes so per-class runs fragment interestingly.
    for (const int id : {4, 5, 10, 11, 14}) mc.attribute_overrides.emplace_back(id, highmem);
    for (const int id : {7, 8, 15}) mc.attribute_overrides.emplace_back(id, arm);
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

TEST(FreeNodeIndex, RandomizedChurnMatchesMachineScan) {
  Cluster c;
  NodeManager mgr(*c.machine, c.jobs, c.drom);
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto rnd = [&state](std::uint64_t bound) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state % bound;
  };

  JobConstraints highmem;
  highmem.min_memory_gb = 128;
  JobConstraints arm;
  arm.required_arch = "aarch64";
  JobConstraints broad;  // matches default + highmem classes
  broad.required_network = "opa";
  const std::vector<const JobConstraints*> attr_probes{nullptr, &highmem, &arm, &broad};

  SimTime now = 0;
  std::string diag;
  int starts = 0;
  for (int step = 0; step < 500; ++step) {
    now += static_cast<SimTime>(rnd(20));
    if (rnd(2) == 0) {
      // Allocate: random size on the machine's own pick (any eligible set).
      const int want = 1 + static_cast<int>(rnd(4));
      JobConstraints* probe = nullptr;  // unconstrained placement
      const auto nodes = c.machine->find_free_nodes(want, probe);
      if (nodes) {
        const JobId id = c.add_running(now, want, 10 + static_cast<SimTime>(rnd(300)));
        mgr.start_static(now, id, *nodes);
        c.running.push_back(id);
        ++starts;
      }
    } else if (!c.running.empty()) {
      const std::size_t pick = rnd(c.running.size());
      const JobId id = c.running[pick];
      c.running.erase(c.running.begin() + static_cast<std::ptrdiff_t>(pick));
      c.jobs.at(id).state = JobState::Completed;
      c.jobs.at(id).end_time = now;
      mgr.finish_job(now, id);
    }

    ASSERT_TRUE(c.index->check_consistent(&diag)) << "step " << step << ": " << diag;

    // Probe every (constraints x contiguous x count) cell against the scan.
    for (const JobConstraints* attrs : attr_probes) {
      for (const bool contiguous : {false, true}) {
        JobConstraints probe = attrs != nullptr ? *attrs : JobConstraints{};
        probe.contiguous = contiguous;
        const JobConstraints* arg =
            (attrs == nullptr && !contiguous) ? nullptr : &probe;
        for (const int count :
             {1, 2, 3, c.machine->free_node_count(), c.machine->node_count()}) {
          if (count < 1) continue;
          const auto indexed = c.index->find_free_nodes(count, arg);
          const auto scanned = c.machine->find_free_nodes(count, arg);
          ASSERT_EQ(indexed, scanned)
              << "step " << step << " count " << count << " contiguous " << contiguous
              << " attrs " << (attrs != nullptr);
        }
      }
    }
  }
  EXPECT_GT(starts, 50);  // the walk actually exercised occupancy churn
}

// ---------------------------------------------------------------------------
// Property: bitmap == brute-force reference through pure free/busy flip
// churn, at 64-aligned and non-aligned node counts (the dead bits of a
// partial last word must never surface), up to 50K nodes. The summary-level
// invariant — summary bit w set exactly when words[w] != 0 — is asserted
// after every single mutation.
// ---------------------------------------------------------------------------

/// Machine::find_free_nodes semantics over a plain free vector: the `count`
/// lowest eligible ids, or the first `count` ids of the earliest adequate
/// run of consecutive eligible ids.
std::optional<std::vector<int>> reference_pick(const std::vector<bool>& is_free,
                                               const std::vector<int>& node_class,
                                               int count, const std::vector<int>& classes,
                                               bool contiguous) {
  std::vector<int> ids;
  for (int id = 0; id < static_cast<int>(is_free.size()); ++id) {
    if (!is_free[static_cast<std::size_t>(id)]) continue;
    for (const int cls : classes) {
      if (node_class[static_cast<std::size_t>(id)] == cls) {
        ids.push_back(id);
        break;
      }
    }
  }
  if (!contiguous) {
    if (static_cast<int>(ids.size()) < count) return std::nullopt;
    ids.resize(static_cast<std::size_t>(count));
    return ids;
  }
  std::size_t run_start = 0;
  for (std::size_t i = 1; i <= ids.size(); ++i) {
    if (i == ids.size() || ids[i] != ids[i - 1] + 1) {
      if (i - run_start >= static_cast<std::size_t>(count)) {
        return std::vector<int>(ids.begin() + static_cast<std::ptrdiff_t>(run_start),
                                ids.begin() + static_cast<std::ptrdiff_t>(run_start) +
                                    count);
      }
      run_start = i;
    }
  }
  return std::nullopt;
}

void churn_parity(int node_count, int steps, int probe_every, std::uint64_t seed) {
  std::uint64_t state = seed;
  const auto rnd = [&state](std::uint64_t bound) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state % bound;
  };
  constexpr int kClasses = 3;
  std::vector<int> node_class(static_cast<std::size_t>(node_count));
  for (auto& cls : node_class) cls = static_cast<int>(rnd(kClasses));

  FreeNodeIndex bitmap(node_class, kClasses);
  std::vector<bool> is_free(static_cast<std::size_t>(node_count), true);

  const std::vector<std::vector<int>> class_lists{{0}, {1}, {2}, {0, 2}, {0, 1, 2}};
  const std::vector<int> counts{1, 2, 7, 63, 64, 65};

  std::string diag;
  for (int step = 0; step < steps; ++step) {
    const int id = static_cast<int>(rnd(static_cast<std::uint64_t>(node_count)));
    if (is_free[static_cast<std::size_t>(id)]) {
      bitmap.erase(id);
      is_free[static_cast<std::size_t>(id)] = false;
    } else {
      bitmap.insert(id);
      is_free[static_cast<std::size_t>(id)] = true;
    }

    // Summary-level invariant on the class the flip touched, after every
    // mutation — the one structural fact every word scan relies on.
    const auto& words = bitmap.words_of_class(node_class[static_cast<std::size_t>(id)]);
    const auto& summary =
        bitmap.summary_of_class(node_class[static_cast<std::size_t>(id)]);
    for (std::size_t w = 0; w < words.size(); ++w) {
      const bool bit = ((summary[w >> 6] >> (w & 63)) & 1) != 0;
      ASSERT_EQ(bit, words[w] != 0)
          << "step " << step << ": summary bit " << w << " out of sync";
    }

    if (step % probe_every != 0) continue;
    ASSERT_TRUE(bitmap.check_consistent(is_free, &diag)) << "step " << step << ": " << diag;
    for (const auto& classes : class_lists) {
      for (const bool contiguous : {false, true}) {
        for (const int count : counts) {
          const auto got = bitmap.pick(count, classes, contiguous);
          const auto want =
              reference_pick(is_free, node_class, count, classes, contiguous);
          ASSERT_EQ(got, want) << "step " << step << " nodes " << node_count << " count "
                               << count << " contiguous " << contiguous;
        }
      }
    }
  }
}

TEST(FreeNodeIndexProperty, ChurnParityTinyNonAligned) {
  churn_parity(/*node_count=*/5, /*steps=*/400, /*probe_every=*/1, 0x1234567890abcdefULL);
}

TEST(FreeNodeIndexProperty, ChurnParityExactlyOneWord) {
  churn_parity(/*node_count=*/64, /*steps=*/400, /*probe_every=*/1, 0x2468ace013579bdfULL);
}

TEST(FreeNodeIndexProperty, ChurnParityWordBoundary) {
  churn_parity(/*node_count=*/65, /*steps=*/400, /*probe_every=*/1, 0xfedcba9876543210ULL);
}

TEST(FreeNodeIndexProperty, ChurnParityTwoWordsNonAligned) {
  churn_parity(/*node_count=*/130, /*steps=*/600, /*probe_every=*/2, 0x0f1e2d3c4b5a6978ULL);
}

TEST(FreeNodeIndexProperty, ChurnParityThousandNodes) {
  churn_parity(/*node_count=*/1000, /*steps=*/600, /*probe_every=*/10, 0x13579bdf02468aceULL);
}

TEST(FreeNodeIndexProperty, ChurnParityFiftyThousandNodes) {
  // The 50K scaling case (non-64-multiple, 782 words): fewer probes — the
  // brute-force reference is O(n) per probe — but every one of the 2000
  // flips still sweeps the summary invariant.
  churn_parity(/*node_count=*/50000, /*steps=*/2000, /*probe_every=*/250,
               0x9e3779b97f4a7c15ULL);
}

// The 50K-node free-pick scene (tests/bench_scenes.h; 50000 is not a
// multiple of 64, so the last word's dead bits are in play): 400 picks
// cycling through the 16 shapes, each byte-identical to the machine scan
// and each answered from the bitmap through the seam schedulers use. The
// words a pick reads are exact on any hardware. The summary level lets a
// far-off or failing pick skip 64 empty words per summary bit, so no pick
// reads an eighth of the 782 words a linear walk would, and the total is
// pinned: a change that moves it must say why.
TEST(FreePick, FiftyThousandNodesMatchMachineScanReadingFewWords) {
  const testing_support::FreePickScene scene(50000);
  constexpr std::uint64_t kWords = (50000 + 63) / 64;
  std::uint64_t total = 0;
  for (int p = 0; p < 400; ++p) {
    const auto& shape = scene.shapes[static_cast<std::size_t>(p) % scene.shapes.size()];
    const std::uint64_t before = scene.index.free_words_read();
    const auto got = scene.index.find_free_nodes(shape.count, shape.constraints);
    const std::uint64_t read = scene.index.free_words_read() - before;
    ASSERT_EQ(got, scene.machine.find_free_nodes(shape.count, shape.constraints))
        << "pick " << p;
    ASSERT_GE(read, 1u) << "pick " << p << " was not answered from the bitmap";
    ASSERT_LT(read, kWords / 8) << "pick " << p << " walked the bitmap word by word";
    total += read;
  }
  EXPECT_EQ(total, 2925u);
}

}  // namespace
}  // namespace sdsched

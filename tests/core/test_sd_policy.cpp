#include "core/sd_policy.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "../sched/scheduler_test_harness.h"
#include "../scoped_env.h"
#include "core/cutoff.h"

namespace sdsched {
namespace {

using testing_support::RecordingExecutor;
using testing_support::finish;
using testing_support::spec_of;

class SdPolicyTest : public ::testing::Test {
 protected:
  SdPolicyTest()
      : machine_(make_config()),
        mgr_(machine_, jobs_, drom_),
        executor_(machine_, jobs_, mgr_),
        sched_(machine_, jobs_, executor_, SchedConfig{}, permissive()) {
    sched_.set_cluster_index(&executor_.index);
  }

  // Unit tests exercise the mechanics with an unbounded cut-off; DynAVGSD's
  // filtering (which needs a populated machine to admit anyone) has its own
  // dedicated test below.
  static SdConfig permissive() {
    SdConfig config;
    config.cutoff = CutoffConfig::infinite();
    return config;
  }

  static MachineConfig make_config() {
    MachineConfig config;
    config.nodes = 4;
    config.node = NodeConfig{2, 24};
    return config;
  }

  JobId submit(int cpus, SimTime runtime, SimTime req_time, SimTime submit_time = 0,
               MalleabilityClass cls = MalleabilityClass::Malleable) {
    const JobId id = jobs_.add(spec_of(submit_time, runtime, req_time, cpus, 48, cls));
    sched_.on_submit(id);
    return id;
  }

  Machine machine_;
  JobRegistry jobs_;
  DromRegistry drom_;
  NodeManager mgr_;
  RecordingExecutor executor_;
  SdPolicyScheduler sched_;
};

TEST_F(SdPolicyTest, StaticPlacementPreferredWhenRoomExists) {
  const JobId a = submit(96, 100, 100);
  sched_.schedule_pass(0);
  EXPECT_EQ(executor_.static_starts, (std::vector<JobId>{a}));
  EXPECT_TRUE(executor_.guest_starts.empty());
}

TEST_F(SdPolicyTest, MalleableStartWhenWaitExceedsIncrease) {
  // Machine saturated by two long 2-node jobs; a short 2-node malleable job
  // would wait ~10000s statically but only pay ~60s of increase -> SD must
  // co-schedule it on one mate of matching weight (Eq. 3).
  const JobId a1 = submit(96, 10000, 10000);
  const JobId a2 = submit(96, 10000, 10000);
  sched_.schedule_pass(0);
  ASSERT_EQ(executor_.static_starts, (std::vector<JobId>{a1, a2}));

  const JobId b = submit(96, 60, 60, 10);
  executor_.now = 10;
  sched_.schedule_pass(10);
  EXPECT_EQ(executor_.guest_starts, (std::vector<JobId>{b}));
  EXPECT_EQ(sched_.malleable_starts(), 1u);
  const Job& guest = jobs_.at(b);
  EXPECT_TRUE(guest.started_as_guest);
  ASSERT_EQ(guest.mates.size(), 1u);
  EXPECT_EQ(guest.mates[0], a1);  // equal penalties: lowest id wins
  // update_stats: mate's predicted end stretched by its increase.
  EXPECT_GT(jobs_.at(a1).predicted_increase, 0);
}

TEST_F(SdPolicyTest, OversizedMatesAreIneligible) {
  // Eq. 3 is an exact match: a 4-node mate cannot host a 2-node guest.
  submit(192, 10000, 10000);
  sched_.schedule_pass(0);
  const JobId b = submit(96, 60, 60, 10);
  executor_.now = 10;
  sched_.schedule_pass(10);
  EXPECT_TRUE(executor_.guest_starts.empty());
  EXPECT_TRUE(sched_.queue().contains(b));
}

TEST_F(SdPolicyTest, RejectsWhenStaticWaitIsShort) {
  // Blocking job ends soon: waiting is cheaper than doubling the runtime.
  const JobId a = submit(192, 100, 100);
  sched_.schedule_pass(0);
  const JobId b = submit(96, 90, 90, 10);
  executor_.now = 10;
  sched_.schedule_pass(10);
  EXPECT_TRUE(executor_.guest_starts.empty());
  EXPECT_TRUE(sched_.queue().contains(b));
  EXPECT_GT(sched_.estimate_rejections(), 0u);
  (void)a;
}

TEST_F(SdPolicyTest, RigidJobsNeverGoMalleable) {
  submit(96, 10000, 10000);
  submit(96, 10000, 10000);
  sched_.schedule_pass(0);
  const JobId b = submit(96, 60, 60, 10, MalleabilityClass::Rigid);
  executor_.now = 10;
  sched_.schedule_pass(10);
  EXPECT_TRUE(executor_.guest_starts.empty());
  EXPECT_TRUE(sched_.queue().contains(b));
}

TEST_F(SdPolicyTest, MoldableJobsCanBeGuests) {
  submit(96, 10000, 10000);
  submit(96, 10000, 10000);
  sched_.schedule_pass(0);
  const JobId b = submit(96, 60, 60, 10, MalleabilityClass::Moldable);
  executor_.now = 10;
  sched_.schedule_pass(10);
  EXPECT_EQ(executor_.guest_starts, (std::vector<JobId>{b}));
}

TEST_F(SdPolicyTest, GuestTooLongForMateAllocationStaysQueued) {
  submit(96, 500, 500);
  submit(96, 500, 500);
  sched_.schedule_pass(0);
  // Shrunk duration ~2x600 = 1200 > mate's remaining 490: selection fails.
  const JobId b = submit(96, 600, 600, 10);
  executor_.now = 10;
  sched_.schedule_pass(10);
  EXPECT_TRUE(executor_.guest_starts.empty());
  EXPECT_TRUE(sched_.queue().contains(b));
  EXPECT_GT(sched_.estimate_rejections() + sched_.selection_failures(), 0u);
}

TEST_F(SdPolicyTest, SecondGuestCannotStackOnSameMate) {
  // Fill the machine with ONE eligible 2-node mate and one rigid filler so
  // the second guest has nowhere to go.
  const JobId mate = submit(96, 100000, 100000);
  submit(96, 100000, 100000, 0, MalleabilityClass::Rigid);
  sched_.schedule_pass(0);
  const JobId b = submit(96, 60, 60, 10);
  executor_.now = 10;
  sched_.schedule_pass(10);
  ASSERT_EQ(executor_.guest_starts, (std::vector<JobId>{b}));
  EXPECT_EQ(jobs_.at(b).mates, (std::vector<JobId>{mate}));
  // A second short job: the only eligible mate already hosts a guest
  // (one owner + one guest per node), and the guest itself is ineligible.
  const JobId c = submit(96, 60, 60, 20);
  executor_.now = 20;
  sched_.schedule_pass(20);
  EXPECT_EQ(executor_.guest_starts.size(), 1u);
  EXPECT_TRUE(sched_.queue().contains(c));
}

TEST_F(SdPolicyTest, MalleabilityTriedInPriorityOrder) {
  // One eligible mate, two malleable candidates; the earlier-submitted one
  // gets it.
  submit(96, 100000, 100000);
  submit(96, 100000, 100000, 0, MalleabilityClass::Rigid);
  sched_.schedule_pass(0);
  const JobId b = submit(96, 60, 60, 10);
  const JobId c = submit(96, 60, 60, 11);
  executor_.now = 11;
  sched_.schedule_pass(11);
  EXPECT_EQ(executor_.guest_starts, (std::vector<JobId>{b}));
  EXPECT_TRUE(sched_.queue().contains(c));
}

TEST_F(SdPolicyTest, StaticCutoffBlocksHighPenaltyPlans) {
  SdConfig strict;
  strict.cutoff = CutoffConfig::max_sd(1.05);  // mates must be near-unharmed
  SdPolicyScheduler tight(machine_, jobs_, executor_, SchedConfig{}, strict);
  tight.set_cluster_index(&executor_.index);
  const JobId a = jobs_.add(spec_of(0, 100000, 100000, 96, 48));
  tight.on_submit(a);
  const JobId a2 = jobs_.add(spec_of(0, 100000, 100000, 96, 48));
  tight.on_submit(a2);
  tight.schedule_pass(0);
  const JobId b = jobs_.add(spec_of(10, 5000, 5000, 96, 48));
  tight.on_submit(b);
  executor_.now = 10;
  tight.schedule_pass(10);
  // Penalty for the mate (increase 5000+ on a 100000 request) exceeds 1.05?
  // increase/req = 0.05 -> penalty ~1.05+: blocked by the tight cut-off.
  EXPECT_TRUE(executor_.guest_starts.empty());
  EXPECT_TRUE(tight.queue().contains(b));
}

TEST_F(SdPolicyTest, NameAndConfigExposed) {
  EXPECT_STREQ(sched_.name(), "sd-policy");
  EXPECT_DOUBLE_EQ(sched_.sd_config().sharing_factor, 0.5);
  EXPECT_EQ(sched_.sd_config().max_mates, 2);
}

// An out-of-range SdConfig is a usage error naming the field and the value,
// never undefined behaviour in the selector's arithmetic.
TEST_F(SdPolicyTest, RejectsOutOfRangeConfigNamingFieldAndValue) {
  const auto error_for = [&](auto&& mutate) -> std::string {
    SdConfig config;
    mutate(config);
    try {
      const SdPolicyScheduler bad(machine_, jobs_, executor_, SchedConfig{}, config);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  EXPECT_EQ(error_for([](SdConfig& c) { c.sharing_factor = std::nan(""); }),
            "SdConfig.sharing_factor must be a number in (0, 1], got nan");
  EXPECT_EQ(error_for([](SdConfig& c) { c.sharing_factor = 1e300; }),
            "SdConfig.sharing_factor must be a number in (0, 1], got 1e+300");
  EXPECT_EQ(error_for([](SdConfig& c) { c.sharing_factor = 0.0; }),
            "SdConfig.sharing_factor must be a number in (0, 1], got 0");
  EXPECT_EQ(error_for([](SdConfig& c) { c.max_mates = 0; }),
            "SdConfig.max_mates must be >= 1, got 0");
  EXPECT_EQ(error_for([](SdConfig& c) { c.max_candidates = -1; }),
            "SdConfig.max_candidates must be >= 0, got -1");
  EXPECT_EQ(error_for([](SdConfig& c) { c.scan.guest_budget = -1; }),
            "SdConfig.scan.guest_budget must be >= 0, got -1");
  EXPECT_EQ(error_for([](SdConfig& c) { c.cutoff = CutoffConfig::max_sd(-1.0); }),
            "SdConfig.cutoff.value must be a number > 0 for a Static cut-off, got -1");
  EXPECT_EQ(error_for([](SdConfig& c) { c.cutoff = CutoffConfig::max_sd(std::nan("")); }),
            "SdConfig.cutoff.value must be a number > 0 for a Static cut-off, got nan");

  // Every in-tree configuration stays valid: the ablation's sf / m / nm
  // variants, MAXSD 5/10/50 and the unbounded cut-off.
  for (const double sf : {0.25, 0.5, 0.75, 1.0}) {
    EXPECT_EQ(error_for([sf](SdConfig& c) { c.sharing_factor = sf; }), "accepted");
  }
  for (const int m : {1, 3}) {
    EXPECT_EQ(error_for([m](SdConfig& c) { c.max_mates = m; }), "accepted");
  }
  for (const int nm : {0, 16}) {
    EXPECT_EQ(error_for([nm](SdConfig& c) { c.max_candidates = nm; }), "accepted");
  }
  for (const double maxsd : {5.0, 10.0, 50.0}) {
    EXPECT_EQ(error_for([maxsd](SdConfig& c) { c.cutoff = CutoffConfig::max_sd(maxsd); }),
              "accepted");
  }
  EXPECT_EQ(error_for([](SdConfig& c) { c.cutoff = CutoffConfig::infinite(); }), "accepted");
}

TEST_F(SdPolicyTest, DynAvgSdIsConservativeOnLoneMate) {
  // With a single running job, the dynamic cut-off equals that job's own
  // current slowdown, and Eq. 2's penalty (which adds the increase) always
  // exceeds it: DynAVGSD refuses — the §3.2.2 "spread the slowdown" rule.
  SdConfig dynamic;
  dynamic.cutoff = CutoffConfig::dynamic_avg();
  SdPolicyScheduler dyn(machine_, jobs_, executor_, SchedConfig{}, dynamic);
  dyn.set_cluster_index(&executor_.index);
  const JobId a = jobs_.add(spec_of(0, 10000, 10000, 192, 48));
  dyn.on_submit(a);
  dyn.schedule_pass(0);
  const JobId b = jobs_.add(spec_of(10, 60, 60, 96, 48));
  dyn.on_submit(b);
  executor_.now = 10;
  dyn.schedule_pass(10);
  EXPECT_TRUE(executor_.guest_starts.empty());
  EXPECT_TRUE(dyn.queue().contains(b));
}

// The cut-off cache's crosscheck message must print both values with
// enough digits to tell them apart. Two running jobs that never got a
// start_time make DynAVGSD move with `now` at a fixed mutation serial (a
// state the simulator itself never produces), and with requests of 10^7 s
// the cut-offs at t = 1 and t = 2 differ only in the 7th digit.
TEST(SdPolicyCutoffCache, CrosscheckMessagePrintsRoundTripDigits) {
  const testing_support::ScopedEnv on("SDSCHED_CROSSCHECK", "1");
  MachineConfig config;
  config.nodes = 4;
  config.node = NodeConfig{2, 24};
  Machine machine(config);
  JobRegistry jobs;
  DromRegistry drom;
  NodeManager mgr(machine, jobs, drom);
  RecordingExecutor executor(machine, jobs, mgr);
  ASSERT_TRUE(executor.index.crosscheck());
  constexpr SimTime kLong = 10000000;
  std::vector<JobId> running;
  for (const std::vector<int>& nodes : {std::vector<int>{0, 1}, std::vector<int>{2, 3}}) {
    const JobId id = jobs.add(spec_of(0, kLong, kLong, 96, 48));
    jobs.at(id).state = JobState::Running;
    jobs.at(id).predicted_end = kLong;
    mgr.start_static(0, id, nodes);
    running.push_back(id);
  }
  SdConfig sd;
  sd.cutoff = CutoffConfig::dynamic_avg();
  SdPolicyScheduler sched(machine, jobs, executor, SchedConfig{}, sd);
  sched.set_cluster_index(&executor.index);
  // A 3-node guest: no pair of 2-node mates sums to it, so no pass mutates.
  sched.on_submit(jobs.add(spec_of(0, 100, 100, 144, 48)));
  sched.schedule_pass(1);

  const double cached = compute_cutoff(sd.cutoff, jobs, running, 1);
  const double fresh = compute_cutoff(sd.cutoff, jobs, running, 2);
  ASSERT_NE(cached, fresh);
  std::string what = "no exception";
  try {
    sched.schedule_pass(2);
  } catch (const std::logic_error& e) {
    what = e.what();
  }
  const std::string prefix = "SD cutoff cache diverged from a fresh computation: cached ";
  ASSERT_EQ(what.rfind(prefix, 0), 0u) << what;
  const auto comma = what.find(", fresh ");
  const auto at = what.find(" at t=2");
  ASSERT_NE(comma, std::string::npos) << what;
  ASSERT_NE(at, std::string::npos) << what;
  // Each printed value reads back as exactly the double it came from.
  EXPECT_EQ(std::stod(what.substr(prefix.size(), comma - prefix.size())), cached) << what;
  EXPECT_EQ(std::stod(what.substr(comma + 8, at - comma - 8)), fresh) << what;
}

// Backfill skips a pass that would repeat a quiet one; SD-Policy never
// does, since its Listing 1 estimate moves with `now`. The crosscheck is
// pinned off before the index reads it (it would run the repeat anyway).
TEST(SdPolicyQuietPass, NeverSkipsARepeat) {
  const testing_support::ScopedEnv off("SDSCHED_CROSSCHECK", std::nullopt);
  MachineConfig config;
  config.nodes = 4;
  config.node = NodeConfig{2, 24};
  Machine machine(config);
  JobRegistry jobs;
  DromRegistry drom;
  NodeManager mgr(machine, jobs, drom);
  RecordingExecutor executor(machine, jobs, mgr);
  ASSERT_FALSE(executor.index.crosscheck());
  SdConfig sd;
  sd.cutoff = CutoffConfig::infinite();
  SdPolicyScheduler sched(machine, jobs, executor, SchedConfig{}, sd);
  sched.set_cluster_index(&executor.index);

  // A 4-node job fills the machine; a 2-node guest has no mate of its size
  // (Eq. 3), so every pass over it decides nothing.
  sched.on_submit(jobs.add(spec_of(0, 10000, 10000, 192, 48)));
  sched.schedule_pass(0);
  const JobId b = jobs.add(spec_of(10, 60, 60, 96, 48));
  sched.on_submit(b);
  executor.now = 10;
  sched.schedule_pass(10);
  const auto reuses = sched.profile_reuses();
  executor.now = 20;
  sched.schedule_pass(20);
  EXPECT_EQ(sched.passes_skipped(), 0u);
  EXPECT_EQ(sched.profile_reuses(), reuses + 1);
  EXPECT_TRUE(sched.queue().contains(b));
}

}  // namespace
}  // namespace sdsched

// Saturation suite for the queue-depth-sublinear SD pass
// (core/guest_scan_policy.h): under over-subscribed workloads (offered load
// > 1, the regime where the wait queue grows without bound) the guest
// budget and the failed-select scan ledger must be *decision-invisible* —
// they bound how much work a pass runs, never which plans start.
//
// Three contracts over full end-to-end Simulations on randomized Cirne
// churn (several seeds, load > 1), plus the exact work of one saturated
// pass:
//
//  (a) the ledger hides no plan: under the SDSCHED_CROSSCHECK switch every
//      claimed-safe skip re-runs the full mate search inside the pass and
//      throws std::logic_error if that search finds a plan, so a clean run
//      with skips firing decides exactly what a run without the ledger
//      would (each skip stands in for a search that fails), and the
//      recheck itself decides nothing, so the same holds with it off;
//  (b) a budget at least the queue depth is byte-identical to unbounded,
//      and a tight budget still drains the workload (deferred guests are
//      reconsidered on later passes);
//  (c) on the saturated 5040-node scene (tests/bench_scenes.h) the pass's
//      work counters are the values the budget and the guests' width
//      imply, identical at queue depths 1000 and 4000.
//
// Identity in (b) is asserted on a decision document: the full metrics
// summary, the FNV-1a digest of every per-job record, and the
// decision-relevant counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

#include "../bench_scenes.h"
#include "../integration/golden_common.h"
#include "../scoped_env.h"
#include "api/experiment.h"
#include "api/simulation.h"
#include "cluster/cluster_state_index.h"
#include "cluster/machine.h"
#include "core/guest_scan_policy.h"
#include "core/sd_policy.h"
#include "job/job_registry.h"
#include "metrics/summary.h"
#include "util/json.h"
#include "workload/cirne.h"

namespace sdsched {
namespace {

/// A small machine under offered load > 1: the queue saturates within the
/// first simulated hours, so every pass exercises the budget slice and the
/// ledger sees plenty of repeated failed selects.
Workload saturated_workload(std::uint64_t seed) {
  CirneConfig wl;
  wl.n_jobs = 400;
  wl.system_nodes = 64;
  wl.cores_per_node = 8;
  wl.max_job_nodes = 16;
  wl.target_load = 1.6;
  wl.seed = seed;
  return generate_cirne(wl);
}

MachineConfig saturated_machine() {
  MachineConfig machine;
  machine.nodes = 64;
  machine.node = NodeConfig{2, 4};
  return machine;
}

SimulationConfig saturated_config(const GuestScanPolicy& scan) {
  SimulationConfig cfg = sd_config(saturated_machine(), CutoffConfig::dynamic_avg());
  cfg.sd.scan = scan;
  return cfg;
}

/// Everything a scheduling decision can influence, in one byte-comparable
/// string. sd_selection_failures is included on purpose: ledger skips are
/// counted as selection failures too, so two runs that decide alike
/// report equal totals. sd_rescans_avoided is left out: it counts work
/// saved, not a decision.
std::string decision_document(const SimulationReport& report) {
  JsonWriter json;
  json.begin_object();
  json.key("summary");
  to_json(json, report.summary);
  json.field("records", static_cast<std::uint64_t>(report.records.size()));
  json.field("records_fnv1a", golden::records_digest(report.records));
  json.field("malleable_starts", report.malleable_starts);
  json.field("cancelled_jobs", report.cancelled_jobs);
  json.field("sd_estimate_rejections", report.sd_estimate_rejections);
  json.field("sd_selection_failures", report.sd_selection_failures);
  json.field("sd_budget_deferrals", report.sd_budget_deferrals);
  json.end_object();
  return json.str();
}

SimulationReport run_cell(std::uint64_t seed, const GuestScanPolicy& scan) {
  return Simulation(saturated_config(scan), saturated_workload(seed)).run();
}

/// Asserts that indexes built from here on read SDSCHED_CROSSCHECK as on,
/// the Simulation's included: without it a crosschecked run is vacuous.
void expect_crosscheck_switch_on() {
  Machine machine(saturated_machine());
  const JobRegistry jobs;
  ASSERT_TRUE(ClusterStateIndex(machine, jobs).crosscheck());
}

// (a) The ledger changes how much work runs, never which plans start: at
// every (seed, budget) pair each skip is re-proven by the full search.
TEST(SdSaturation, LedgerIsDecisionInvisible) {
  const testing_support::ScopedEnv crosscheck("SDSCHED_CROSSCHECK", "1");
  ASSERT_NO_FATAL_FAILURE(expect_crosscheck_switch_on());
  std::uint64_t total_rescans_avoided = 0;
  for (const std::uint64_t seed : {11u, 23u, 47u}) {
    for (const int budget : {0, 6}) {
      GuestScanPolicy scan;
      scan.guest_budget = budget;
      SimulationReport report;
      ASSERT_NO_THROW(report = run_cell(seed, scan))
          << "crosscheck refuted a ledger skip at seed " << seed << " budget " << budget;
      total_rescans_avoided += report.sd_rescans_avoided;
    }
  }
  // The recheck is vacuous unless the ledger actually fired.
  EXPECT_GT(total_rescans_avoided, 0u)
      << "saturated churn never produced a provably-unchanged re-scan";
}

// (a) The recheck carries over to runs without the switch only if it
// decides nothing itself: a crosschecked run, with skips firing at every
// seed, must match the same run with the switch off byte for byte.
TEST(SdSaturation, CrosscheckValidatesEverySkip) {
  for (const std::uint64_t seed : {11u, 47u}) {
    SimulationReport plain;
    {
      const testing_support::ScopedEnv off("SDSCHED_CROSSCHECK", std::nullopt);
      plain = run_cell(seed, GuestScanPolicy{});
    }
    const testing_support::ScopedEnv crosscheck("SDSCHED_CROSSCHECK", "1");
    ASSERT_NO_FATAL_FAILURE(expect_crosscheck_switch_on());
    SimulationReport checked;
    ASSERT_NO_THROW(checked = run_cell(seed, GuestScanPolicy{}))
        << "crosscheck refuted a ledger skip at seed " << seed;
    EXPECT_GT(checked.sd_rescans_avoided, 0u)
        << "crosscheck run exercised no skips at seed " << seed << ": the recheck was vacuous";
    EXPECT_EQ(decision_document(plain), decision_document(checked))
        << "the crosscheck changed decisions at seed " << seed;
  }
}

// (b) A budget >= the deepest possible queue is the unbounded pass; a
// tight budget defers guests but still drains the whole workload.
TEST(SdSaturation, BudgetCoveringQueueMatchesUnbounded) {
  constexpr int kJobs = 400;
  for (const std::uint64_t seed : {5u, 31u}) {
    GuestScanPolicy unbounded;  // guest_budget = 0
    GuestScanPolicy covering;
    covering.guest_budget = kJobs;  // queue depth can never exceed the job count

    const SimulationReport base = run_cell(seed, unbounded);
    const SimulationReport capped = run_cell(seed, covering);
    EXPECT_EQ(base.sd_budget_deferrals, 0u);
    EXPECT_EQ(capped.sd_budget_deferrals, 0u)
        << "a budget covering the whole workload still deferred guests";
    EXPECT_EQ(decision_document(base), decision_document(capped))
        << "covering budget diverged from unbounded at seed " << seed;
  }
}

TEST(SdSaturation, TightBudgetDefersButDrains) {
  GuestScanPolicy tight;
  tight.guest_budget = 2;
  const SimulationReport report = run_cell(7u, tight);
  EXPECT_GT(report.sd_budget_deferrals, 0u)
      << "a 2-guest budget under load 1.6 never hit the cap";
  // Deferral is per-pass, not starvation: every job still runs to the end.
  EXPECT_EQ(report.records.size(), 400u);
  for (const JobRecord& record : report.records) {
    EXPECT_GE(record.start, 0) << "job " << record.id << " never started";
    EXPECT_GE(record.end, record.start) << "job " << record.id << " never finished";
  }
}

// (c) bf_max_jobs (1000) caps the guests a pass walks and the budget (64)
// how many of them reach a mate search or a ledger skip. Pass 1 searches 64
// guests and each search fails; nothing mutates, so passes 2-4 skip the
// same 64 through the ledger; the other 936 walked guests are deferred on
// every pass. None of this may depend on how deep the queue behind the
// walked prefix is. What a search costs depends on the guest's width: no
// two 2-node mates sum to 3 nodes, so a 3-node guest's search is a weight
// rejection that scans nothing, while a 4-node guest's walks every listed
// mate once.
void expect_saturated_pass_counters(int guest_nodes, bool weight_rejected) {
  using testing_support::SaturatedSdScene;
  constexpr std::uint64_t kPasses = 4;
  constexpr std::uint64_t kBudget = SaturatedSdScene::kGuestBudget;
  constexpr std::uint64_t kWalked = SchedConfig{}.bf_max_jobs;
  constexpr std::uint64_t kMates = SaturatedSdScene::kNodes / 2;
  for (const int depth : {1000, 4000}) {
    SCOPED_TRACE(depth);
    SaturatedSdScene scene(depth, guest_nodes);
    scene.run_passes(static_cast<int>(kPasses));
    // Under SDSCHED_CROSSCHECK every skip also re-runs its search.
    const std::uint64_t searches = scene.index.crosscheck() ? kBudget * kPasses : kBudget;
    const SdPolicyScheduler& sd = *scene.scheduler;
    const MateSelector::SelectStats& stats = sd.selector_stats();
    EXPECT_EQ(stats.selects, searches);
    EXPECT_EQ(stats.weight_rejections, weight_rejected ? searches : 0u);
    EXPECT_EQ(stats.candidates_scanned, weight_rejected ? 0u : searches * kMates);
    EXPECT_EQ(stats.combinations_evaluated, 0u);
    EXPECT_EQ(stats.plans_found, 0u);
    EXPECT_EQ(sd.estimate_rejections(), 0u);
    EXPECT_EQ(sd.selection_failures(), kBudget * kPasses);
    EXPECT_EQ(sd.rescans_avoided(), kBudget * (kPasses - 1));
    EXPECT_EQ(sd.budget_deferrals(), (kWalked - kBudget) * kPasses);
  }
}

TEST(SdSaturation, SaturatedPassCountersFollowTheBudget) {
  expect_saturated_pass_counters(3, /*weight_rejected=*/true);
}

TEST(SdSaturation, SaturatedPassScansEveryMateWhenWeightsFit) {
  expect_saturated_pass_counters(4, /*weight_rejected=*/false);
}

// Unit-level ledger semantics: the skip predicate is exactly (same serial,
// same planned duration, free allowance no larger, still inside the
// truncation-proof window). The serial alone stands for the mate population:
// ClusterStateIndex.LifecycleStepsAdvanceMutationSerial pins that every
// start and finish moves it.
TEST(SdSaturation, LedgerSkipPredicate) {
  GuestScanLedger ledger;
  GuestScanLedger::Entry entry;
  entry.serial = 9;
  entry.planned = 500;
  entry.valid_until = 1000;
  entry.max_free = 4;
  ledger.record(17, entry);

  EXPECT_TRUE(ledger.can_skip(17, 9, 500, 4, 100));
  EXPECT_TRUE(ledger.can_skip(17, 9, 500, 2, 999));   // fewer free nodes: harder
  EXPECT_FALSE(ledger.can_skip(17, 10, 500, 4, 100)); // machine mutated
  EXPECT_FALSE(ledger.can_skip(17, 9, 501, 4, 100));  // different planned duration
  EXPECT_FALSE(ledger.can_skip(17, 9, 500, 5, 100));  // more free nodes than proven
  EXPECT_FALSE(ledger.can_skip(17, 9, 500, 4, 1000)); // truncation proof lapsed
  EXPECT_FALSE(ledger.can_skip(3, 9, 500, 4, 100));   // never recorded
  EXPECT_FALSE(ledger.can_skip(99, 9, 500, 4, 100));  // past the table
}

}  // namespace
}  // namespace sdsched

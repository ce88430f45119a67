// Saturation parity suite for the queue-depth-sublinear SD pass
// (core/guest_scan_policy.h): under over-subscribed workloads (offered load
// > 1, the regime where the wait queue grows without bound) the guest
// budget and the failed-select scan ledger must be *decision-invisible* —
// they bound how much work a pass runs, never which plans start.
//
// Three contracts, each checked over full end-to-end Simulations on
// randomized Cirne churn (several seeds, load > 1):
//
//  (a) ledger ON is byte-identical to ledger OFF (the pre-ledger pass) at
//      every budget, while actually skipping re-scans;
//  (b) a budget at least the queue depth is byte-identical to unbounded,
//      and a tight budget still drains the workload (deferred guests are
//      reconsidered on later passes);
//  (c) the SDSCHED_CROSSCHECK switch — which brute-force re-runs the full
//      unbounded mate search on every claimed-safe skip and throws
//      std::logic_error if the "provably unchanged" state found a plan
//      after all — passes clean.
//      This is the "ledger never skips a guest whose mate set changed"
//      recheck, executed inside the production pass itself.
//
// Identity is asserted on a decision document: the full metrics summary,
// the FNV-1a digest of every per-job record, and the decision-relevant
// counters. sd_rescans_avoided is deliberately excluded — it is the one
// counter that *should* differ between ledger ON and OFF.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "../integration/golden_common.h"
#include "../scoped_env.h"
#include "api/experiment.h"
#include "api/simulation.h"
#include "cluster/cluster_state_index.h"
#include "cluster/machine.h"
#include "core/guest_scan_policy.h"
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
/// counted as selection failures too, so the totals must match an
/// unbounded run's — a drift here means a skip replaced a *successful*
/// search, the exact bug class the ledger proof rules out.
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

// (a) The ledger changes how much work runs, never which plans start:
// byte-identical decisions at every (seed, budget) pair, with real skips.
TEST(SdSaturation, LedgerIsDecisionInvisible) {
  std::uint64_t total_rescans_avoided = 0;
  for (const std::uint64_t seed : {11u, 23u, 47u}) {
    for (const int budget : {0, 6}) {
      GuestScanPolicy off;
      off.guest_budget = budget;
      off.ledger = false;
      GuestScanPolicy on;
      on.guest_budget = budget;
      on.ledger = true;

      const SimulationReport without = run_cell(seed, off);
      const SimulationReport with = run_cell(seed, on);
      EXPECT_EQ(without.sd_rescans_avoided, 0u);
      total_rescans_avoided += with.sd_rescans_avoided;
      EXPECT_EQ(decision_document(without), decision_document(with))
          << "scan ledger changed decisions at seed " << seed << " budget " << budget;
    }
  }
  // The parity above is vacuous unless the ledger actually fired.
  EXPECT_GT(total_rescans_avoided, 0u)
      << "saturated churn never produced a provably-unchanged re-scan";
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

// (c) Brute-force recheck: the crosscheck switch re-runs the full mate
// search on every claimed-safe skip inside the pass and throws
// std::logic_error when a skip would have hidden a plan. A clean saturated
// run with skips firing IS the exhaustive "no guest with a changed mate set
// was skipped" check.
TEST(SdSaturation, CrosscheckValidatesEverySkip) {
  const testing_support::ScopedEnv crosscheck("SDSCHED_CROSSCHECK", "1");
  {
    // Every index built under the guard reads the switch, the Simulation's
    // included: without it the recheck below would be vacuous.
    Machine machine(saturated_machine());
    const JobRegistry jobs;
    ASSERT_TRUE(ClusterStateIndex(machine, jobs).crosscheck());
  }
  for (const std::uint64_t seed : {11u, 47u}) {
    GuestScanPolicy scan;
    scan.ledger = true;
    SimulationReport report;
    ASSERT_NO_THROW(report = run_cell(seed, scan))
        << "crosscheck refuted a ledger skip at seed " << seed;
    EXPECT_GT(report.sd_rescans_avoided, 0u)
        << "crosscheck run exercised no skips — the recheck was vacuous";
  }
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

// Curie-scale golden-parity slice (real-trace safety net).
//
// The W1 golden (test_golden_parity.cpp) pins the steady synthetic-arrival
// path; this test pins the *burst* path the real traces exercise: the
// earliest half of the bundled Curie fixture — same-second submit bursts on
// the full 5040-node machine, including the sanitizer-clamped failed rows —
// replayed under static backfill and SD-Policy MAXSD 10. Per-job records
// and summaries must stay byte-identical across refactors; burst coalescing
// itself must keep firing (a regression that stops coalescing, or one that
// lets coalescing change decisions, both fail here).
//
// Regenerate intentionally with SDSCHED_UPDATE_GOLDEN=1 (see
// golden_common.h) and commit the refreshed
// tests/golden/curie_trace.golden.json with a justification.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "api/experiment.h"
#include "golden_common.h"
#include "metrics/summary.h"
#include "util/json.h"
#include "workload/workload_stats.h"

namespace sdsched {
namespace {

constexpr const char* kGoldenRelPath = "/golden/curie_trace.golden.json";
constexpr const char* kSaturatedGoldenRelPath = "/golden/curie_saturated.golden.json";

/// The earliest half of the bundled Curie fixture, on the trace's machine.
PaperWorkload curie_slice() {
  TraceLoadOptions options;
  options.scale = 0.5;
  const LoadedTrace loaded = load_trace("curie", options);
  PaperWorkload pw;
  pw.workload = loaded.workload;
  pw.machine = trace_machine(loaded);
  return pw;
}

/// The bundled-fixture slice document.
std::string curie_slice_document(std::uint64_t& backfill_coalesced, std::uint64_t& sd_guests) {
  const PaperWorkload pw = curie_slice();
  EXPECT_GT(pw.workload.size(), 0u);
  EXPECT_EQ(pw.machine.nodes, 5040) << "Curie fixture must keep the full machine";

  JsonWriter json;
  json.begin_object();
  json.field("schema", "sdsched-golden-v1");
  json.field("grid", "curie fixture 50% slice: backfill + MAXSD 10");
  json.field("jobs", static_cast<std::uint64_t>(pw.workload.size()));
  json.key("cells");
  json.begin_array();

  const auto emit_cell = [&](const std::string& name, const SimulationConfig& cfg) {
    const SimulationReport report = Simulation(cfg, pw.workload).run();
    if (cfg.policy == PolicyKind::Backfill) backfill_coalesced = report.submits_coalesced;
    if (cfg.policy == PolicyKind::SdPolicy) sd_guests = report.summary.guests;
    json.begin_object();
    json.field("name", name);
    json.key("summary");
    to_json(json, report.summary);
    json.field("records", static_cast<std::uint64_t>(report.records.size()));
    json.field("records_fnv1a", golden::records_digest(report.records));
    json.end_object();
  };

  emit_cell("curie/backfill", baseline_config(pw.machine));
  emit_cell("curie/MAXSD 10", sd_config(pw.machine, CutoffConfig::max_sd(10.0)));

  json.end_array();
  json.end_object();
  return json.str();
}

TEST(GoldenTrace, CurieFixtureSliceMatchesGolden) {
  const PaperWorkload pw = curie_slice();
  ASSERT_GT(pw.workload.size(), 0u);

  // The real-trace regime this slice exists for: same-second submit bursts.
  const WorkloadStats stats = characterize(pw.workload);
  ASSERT_GT(stats.same_time_submits, 0u)
      << "Curie fixture lost its submit bursts — regenerate data/traces";

  std::uint64_t backfill_coalesced = 0;
  std::uint64_t sd_guests = 0;
  const std::string document = curie_slice_document(backfill_coalesced, sd_guests);

  // Coalescing must actually fire on the non-SD cell — that is the behaviour
  // this slice pins. (Counters are excluded from the golden document itself,
  // like the W1 grid, so legitimate pass-count refactors only have to keep
  // decisions identical.)
  EXPECT_GT(backfill_coalesced, 0u)
      << "no same-timestamp submits were coalesced on the backfill cell";
  EXPECT_GT(sd_guests, 0u) << "the SD cell no longer schedules any malleable guests";

  golden::expect_matches_golden(
      document, kGoldenRelPath,
      "Curie trace slice diverged from the committed golden. Per-job records "
      "and summaries must stay byte-identical across refactors; if this PR "
      "intends to change scheduling decisions, regenerate with "
      "SDSCHED_UPDATE_GOLDEN=1 and justify the diff.");
}

// The over-subscribed variant: synthesize_soak() at offered load 1.4 on the
// full 5040-node machine — the saturated regime the guest budget and scan
// ledger exist for (the bundled fixture stays near load 1, so this slice is
// the only golden where the wait queue grows without bound). Unlike the
// other goldens this document pins the SD scan counters too: the ledger's
// skips are part of the contract here (a skip-condition change that alters
// how often the proof applies must show up as a reviewed golden diff), and
// the tight-budget cell pins the deferral schedule, which *is*
// decision-visible (budget 8 is deliberately below this slice's per-pass
// shrinkable-guest count; production-like budgets of 64+ are
// decision-identical to unbounded here, which the parity suite covers).
std::string curie_saturated_document(std::uint64_t& unbounded_rescans,
                                     std::uint64_t& unbounded_deferrals,
                                     std::uint64_t& budgeted_deferrals) {
  const TraceInfo* info = find_trace("curie");
  EXPECT_NE(info, nullptr);
  const Workload workload =
      synthesize_soak(*info, /*n_jobs=*/800, /*seed=*/0, /*offered_load=*/1.4);
  EXPECT_EQ(workload.size(), 800u);

  MachineConfig machine;
  machine.nodes = info->nodes;
  machine.node = NodeConfig{info->sockets, info->cores_per_node / info->sockets};

  JsonWriter json;
  json.begin_object();
  json.field("schema", "sdsched-golden-v1");
  json.field("grid", "curie saturated synthesis (load 1.4): DynAVGSD unbounded + budget 8");
  json.field("jobs", static_cast<std::uint64_t>(workload.size()));
  json.key("cells");
  json.begin_array();

  const auto emit_cell = [&](const std::string& name, int guest_budget) {
    SimulationConfig cfg = sd_config(machine, CutoffConfig::dynamic_avg());
    cfg.sd.scan.guest_budget = guest_budget;
    const SimulationReport report = Simulation(cfg, workload).run();
    if (guest_budget == 0) {
      unbounded_rescans = report.sd_rescans_avoided;
      unbounded_deferrals = report.sd_budget_deferrals;
    } else {
      budgeted_deferrals = report.sd_budget_deferrals;
    }
    json.begin_object();
    json.field("name", name);
    json.key("summary");
    to_json(json, report.summary);
    json.field("records", static_cast<std::uint64_t>(report.records.size()));
    json.field("records_fnv1a", golden::records_digest(report.records));
    json.field("sd_estimate_rejections", report.sd_estimate_rejections);
    json.field("sd_selection_failures", report.sd_selection_failures);
    json.field("sd_rescans_avoided", report.sd_rescans_avoided);
    json.field("sd_budget_deferrals", report.sd_budget_deferrals);
    json.end_object();
  };

  emit_cell("curie-sat/DynAVGSD", /*guest_budget=*/0);
  emit_cell("curie-sat/DynAVGSD budget8", /*guest_budget=*/8);

  json.end_array();
  json.end_object();
  return json.str();
}

TEST(GoldenTrace, CurieSaturatedSliceMatchesGolden) {
  std::uint64_t unbounded_rescans = 0;
  std::uint64_t unbounded_deferrals = 0;
  std::uint64_t budgeted_deferrals = 0;
  const std::string document =
      curie_saturated_document(unbounded_rescans, unbounded_deferrals, budgeted_deferrals);

  // The slice must actually exercise the saturated machinery it pins.
  EXPECT_GT(unbounded_rescans, 0u)
      << "saturated slice produced no ledger skips — the regime it pins is gone";
  EXPECT_EQ(unbounded_deferrals, 0u) << "unbounded cell cannot defer guests";
  EXPECT_GT(budgeted_deferrals, 0u)
      << "tight-budget cell never hit the cap — the deferral schedule it pins is gone";

  golden::expect_matches_golden(
      document, kSaturatedGoldenRelPath,
      "Curie saturated slice diverged from the committed golden. This slice "
      "pins SD decisions AND scan counters under offered load > 1; if this PR "
      "intends to change the budget/ledger behaviour, regenerate with "
      "SDSCHED_UPDATE_GOLDEN=1 and justify the diff.");
}

}  // namespace
}  // namespace sdsched

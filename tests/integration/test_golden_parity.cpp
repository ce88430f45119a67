// Golden-parity harness (refactor safety net).
//
// Runs the Fig. 1-3 W1 default-scale grid (static-backfill baseline plus
// every MAXSD cut-off variant, scale 0.1, seed 0) and compares a canonical
// document — per-cell metric summaries plus a digest over every per-job
// record — against a golden file generated *before* the incremental-state
// refactor. Scheduling-decision parity is the contract: event and pass
// counts may change across refactors (they are deliberately excluded here
// and reported separately in the bench JSON), but per-job records and
// summaries must stay byte-identical. The regenerate protocol
// (SDSCHED_UPDATE_GOLDEN=1) is documented in golden_common.h; the real-trace
// counterpart of this test lives in test_golden_trace.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "api/experiment.h"
#include "golden_common.h"
#include "metrics/summary.h"
#include "util/json.h"

namespace sdsched {
namespace {

constexpr const char* kGoldenRelPath = "/golden/w1_grid.golden.json";

/// The canonical parity document for the W1 default grid.
std::string run_w1_grid_document() {
  const PaperWorkload pw = paper_workload(1, /*scale=*/0.1, /*seed=*/0);

  JsonWriter json;
  json.begin_object();
  json.field("schema", "sdsched-golden-v1");
  json.field("grid", "fig1-3 W1 default scale");
  json.key("cells");
  json.begin_array();

  const auto emit_cell = [&json, &pw](const std::string& name, const SimulationConfig& cfg) {
    const SimulationReport report = Simulation(cfg, pw.workload).run();
    json.begin_object();
    json.field("name", name);
    json.key("summary");
    to_json(json, report.summary);
    json.field("records", static_cast<std::uint64_t>(report.records.size()));
    json.field("records_fnv1a", golden::records_digest(report.records));
    json.end_object();
  };

  emit_cell(pw.label + "/baseline", baseline_config(pw.machine));
  for (const auto& variant : maxsd_sweep()) {
    emit_cell(pw.label + "/" + variant.label, sd_config(pw.machine, variant.cutoff));
  }

  json.end_array();
  json.end_object();
  return json.str();
}

TEST(GoldenParity, W1DefaultGridMatchesPreRefactorGolden) {
  golden::expect_matches_golden(
      run_w1_grid_document(), kGoldenRelPath,
      "W1 grid diverged from the pre-refactor golden. Per-job records and "
      "metric summaries must stay byte-identical across scheduler-state "
      "refactors; if this PR intends to change scheduling decisions, "
      "regenerate with SDSCHED_UPDATE_GOLDEN=1 and justify the diff.");
}

}  // namespace
}  // namespace sdsched

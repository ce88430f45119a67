// Simulation results: aggregate summary plus the per-job records that the
// figure benches turn into heatmaps and daily series.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics/collector.h"
#include "util/json.h"

namespace sdsched {

struct SimulationReport {
  std::string policy;            ///< scheduler name ("backfill", "sd-policy", ...)
  std::string workload;          ///< workload name
  MetricsSummary summary;
  std::vector<JobRecord> records;

  // Kernel/scheduler counters. The incremental-state kernel legitimately
  // fires fewer events and runs fewer passes than the historical
  // rebuild-per-pass one while making identical decisions; the two fields
  // after each counter pair say how much work coalescing/cancellation
  // saved so the drop is attributable.
  std::uint64_t events_fired = 0;
  std::uint64_t scheduling_passes = 0;
  std::uint64_t submits_coalesced = 0;  ///< same-time submits folded into one pass
  std::uint64_t ticks_cancelled = 0;    ///< idle ticks cancelled when the queue drained
  std::uint64_t malleable_starts = 0;
  std::uint64_t drom_shrink_ops = 0;
  std::uint64_t drom_expand_ops = 0;
  std::uint64_t cancelled_jobs = 0;

  // SD-Policy scan counters (zero for other schedulers). The rescans /
  // deferrals pair attributes the saturated-queue savings: every avoided
  // re-scan is also counted as a selection failure, so the failure totals
  // stay comparable to an unbounded run's.
  std::uint64_t sd_estimate_rejections = 0;  ///< quick-estimate rejections (Listing 1)
  std::uint64_t sd_selection_failures = 0;   ///< mate searches without a plan
  std::uint64_t sd_rescans_avoided = 0;      ///< searches the scan ledger skipped
  std::uint64_t sd_budget_deferrals = 0;     ///< guests past the per-pass budget

  [[nodiscard]] std::string brief() const;

  /// Serialize as a JSON object (summary and counters; per-job records are
  /// deliberately omitted — they can be hundreds of thousands of entries).
  void to_json(JsonWriter& json) const;

  /// The to_json document as a standalone string — the canonical
  /// machine-readable form, also used to byte-compare reports in the sweep
  /// determinism test.
  [[nodiscard]] std::string json() const;
};

}  // namespace sdsched

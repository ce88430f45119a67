// SweepRunner — parallel execution of independent simulations.
//
// The paper's whole evaluation is a grid: workloads x cut-off variants x
// execution models, every cell an independent Simulation. A sweep declares
// that grid as data (a vector of named SweepCells), and the runner executes
// it on worker threads:
//
//   std::vector<SweepCell> cells;
//   cells.push_back({"W1/baseline", pw.workload, baseline_config(pw.machine)});
//   for (const auto& v : maxsd_sweep())
//     cells.push_back({"W1/" + v.label, pw.workload, sd_config(pw.machine, v.cutoff)});
//   const auto results = SweepRunner(/*jobs=*/4).run(cells);
//
// Guarantees:
//   * results come back in input order, regardless of completion order;
//   * each cell is a deterministic function of (workload, config) — cells
//     share the workload's immutable job storage, and any stochastic cell
//     identity (replicated seeds) is derived with cell_seed(), never from
//     thread scheduling — so a sweep at --jobs=N is byte-identical to the
//     serial run;
//   * the first cell failure in input order is rethrown after every cell
//     has finished (no detached simulations keep running).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/report.h"
#include "api/simulation.h"
#include "workload/workload.h"

namespace sdsched {

/// One independent simulation of a sweep grid.
struct SweepCell {
  std::string name;    ///< unique label, e.g. "W1/MAXSD 10"
  Workload workload;   ///< cheap shared copy; prepared storage stays shared
  SimulationConfig config;
};

struct SweepResult {
  std::string name;
  SimulationReport report;
  double wall_seconds = 0.0;  ///< this cell's simulation wall-clock
};

class SweepRunner {
 public:
  /// `jobs`: worker threads for the sweep, the calling thread included.
  /// 0 = one per hardware thread; 1 = every cell on the calling thread.
  explicit SweepRunner(int jobs = 0) noexcept : jobs_(jobs < 0 ? 0 : jobs) {}

  /// Requested concurrency (0 = auto).
  [[nodiscard]] int jobs() const noexcept { return jobs_; }

  /// Concurrency actually used for a grid of `cells` cells.
  [[nodiscard]] std::size_t effective_jobs(std::size_t cells) const noexcept;

  /// Run every cell and return results in input order. Cell names must be
  /// non-empty and unique (std::invalid_argument otherwise). If cells
  /// throw, the first failure in input order is rethrown once all cells
  /// have finished.
  [[nodiscard]] std::vector<SweepResult> run(const std::vector<SweepCell>& cells) const;

  /// Deterministic per-cell seed derivation (SplitMix64 finalizer over base
  /// and index; never returns 0, which generators treat as "use default").
  /// Grid builders replicating cells across seeds use this so a cell's seed
  /// depends only on its position, never on execution order.
  [[nodiscard]] static std::uint64_t cell_seed(std::uint64_t base, std::size_t index) noexcept;

 private:
  int jobs_;
};

}  // namespace sdsched

#include "api/sweep.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "api/experiment.h"

namespace sdsched {
namespace {

/// W1 at a small scale: baseline + the five Fig. 1-3 cut-off variants.
std::vector<SweepCell> w1_grid(double scale) {
  const PaperWorkload pw = paper_workload(1, scale);
  std::vector<SweepCell> cells;
  cells.push_back({"W1/baseline", pw.workload, baseline_config(pw.machine)});
  for (const auto& variant : maxsd_sweep()) {
    cells.push_back({"W1/" + variant.label, pw.workload,
                     sd_config(pw.machine, variant.cutoff)});
  }
  return cells;
}

TEST(SweepRunner, CellsShareOneWorkloadStorage) {
  const auto cells = w1_grid(0.02);
  for (std::size_t i = 1; i < cells.size(); ++i) {
    EXPECT_TRUE(cells[0].workload.shares_jobs_with(cells[i].workload));
  }
}

TEST(SweepRunner, ParallelRunIsByteIdenticalToSerial) {
  // The acceptance check of the sweep subsystem: the same (workload, seed,
  // config) grid must produce byte-identical reports whether run inline
  // (jobs=1) or on an 8-worker pool.
  const auto cells = w1_grid(0.02);
  const auto serial = SweepRunner(1).run(cells);
  const auto parallel = SweepRunner(8).run(cells);
  ASSERT_EQ(serial.size(), cells.size());
  ASSERT_EQ(parallel.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(serial[i].name, cells[i].name);      // input order preserved
    EXPECT_EQ(parallel[i].name, cells[i].name);
    EXPECT_EQ(serial[i].report.json(), parallel[i].report.json()) << cells[i].name;
    EXPECT_TRUE(serial[i].report.records == parallel[i].report.records) << cells[i].name;
  }
  // The grid is a real experiment: the baseline is backfill, the rest SD.
  EXPECT_EQ(serial[0].report.policy, "backfill");
  EXPECT_EQ(serial[1].report.policy, "sd-policy");
  EXPECT_GT(serial[0].report.summary.jobs, 0u);
}

TEST(SweepRunner, RepeatedParallelRunsAreDeterministic) {
  const auto cells = w1_grid(0.01);
  const auto first = SweepRunner(4).run(cells);
  const auto second = SweepRunner(4).run(cells);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(first[i].report.json(), second[i].report.json());
  }
}

TEST(SweepRunner, ValidatesCellNames) {
  const PaperWorkload pw = paper_workload(1, 0.01);
  const SweepCell cell{"dup", pw.workload, baseline_config(pw.machine)};
  SweepCell unnamed = cell;
  unnamed.name.clear();
  EXPECT_THROW((void)SweepRunner(1).run({cell, cell}), std::invalid_argument);
  EXPECT_THROW((void)SweepRunner(1).run({unnamed}), std::invalid_argument);
}

TEST(SweepRunner, PropagatesCellExceptions) {
  const PaperWorkload pw = paper_workload(1, 0.01);
  std::vector<SweepCell> cells;
  cells.push_back({"ok", pw.workload, baseline_config(pw.machine)});
  SweepCell bad{"bad-policy", pw.workload, baseline_config(pw.machine)};
  bad.config.policy = static_cast<PolicyKind>(99);  // Simulation ctor throws
  cells.push_back(bad);
  EXPECT_THROW((void)SweepRunner(1).run(cells), std::invalid_argument);
  EXPECT_THROW((void)SweepRunner(4).run(cells), std::invalid_argument);
}

TEST(SweepRunner, EffectiveJobsClampsToGridAndHardware) {
  EXPECT_EQ(SweepRunner(4).effective_jobs(2), 2u);
  EXPECT_EQ(SweepRunner(4).effective_jobs(100), 4u);
  EXPECT_EQ(SweepRunner(1).effective_jobs(10), 1u);
  EXPECT_GE(SweepRunner(0).effective_jobs(100), 1u);
  EXPECT_EQ(SweepRunner(3).effective_jobs(0), 1u);
}

TEST(SweepRunner, CellSeedIsDeterministicDistinctAndNonZero) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {0ULL, 1ULL, 42ULL}) {
    for (std::size_t index = 0; index < 64; ++index) {
      const std::uint64_t seed = SweepRunner::cell_seed(base, index);
      EXPECT_NE(seed, 0u);
      EXPECT_EQ(seed, SweepRunner::cell_seed(base, index));  // stable
      seen.insert(seed);
    }
  }
  EXPECT_EQ(seen.size(), 3u * 64u);  // no collisions across bases/indices
}

TEST(SweepRunner, RunSingleAndCompareStillAgree) {
  // compare() now runs both cells through the runner; its normalized view
  // must match hand-normalizing two run_single() calls.
  const PaperWorkload pw = paper_workload(1, 0.02);
  const SimulationConfig sd = sd_config(pw.machine, CutoffConfig::max_sd(10.0));
  const ExperimentResult result = compare(pw, sd);
  const SimulationReport base = run_single(pw, baseline_config(pw.machine));
  const SimulationReport policy = run_single(pw, sd);
  EXPECT_EQ(result.baseline.json(), base.json());
  EXPECT_EQ(result.policy.json(), policy.json());
}

}  // namespace
}  // namespace sdsched

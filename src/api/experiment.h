// Experiment helpers shared by the bench harness: the paper's five
// workloads (Table 1) at an arbitrary scale factor, standard policy
// configurations, and A/B comparison against the static-backfill baseline.
//
// Scaling shrinks nodes and job counts together so queueing pressure (the
// determinant of backfill/SD behaviour) is preserved; scale=1 reproduces the
// paper's sizes (W4 = 198,509 jobs on 5040 nodes — minutes of CPU time).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "api/simulation.h"
#include "metrics/summary.h"
#include "workload/trace_catalog.h"
#include "workload/workload.h"

namespace sdsched {

struct PaperWorkload {
  std::string label;     ///< "W1".."W5"
  Workload workload;
  MachineConfig machine;
};

/// Table 1 workloads. `which` in 1..5:
///  1 Cirne 5000 jobs / 1024 nodes x 48
///  2 Cirne_ideal (requested time == real duration)
///  3 RICC-like 10000 jobs / 1024 nodes x 8
///  4 CEA-Curie-like 198509 jobs / 5040 nodes x 16
///  5 Cirne_real_run 2000 jobs / 49 nodes x 48, Table-2 applications
[[nodiscard]] PaperWorkload paper_workload(int which, double scale = 1.0,
                                           std::uint64_t seed = 0);

/// The machine a loaded trace (workload/trace_catalog.h) targets: the
/// workload's node count — full size for fixtures, scaled with the workload
/// for synthesized traces — with the trace's documented socket split. The
/// single source of this derivation for the trace benches and tests.
[[nodiscard]] MachineConfig trace_machine(const LoadedTrace& loaded);

/// Static-backfill baseline configuration for a machine.
[[nodiscard]] SimulationConfig baseline_config(const MachineConfig& machine);

/// SD-Policy configuration (SharingFactor 0.5, m=2) with the given cut-off
/// and execution model.
[[nodiscard]] SimulationConfig sd_config(const MachineConfig& machine, CutoffConfig cutoff,
                                         RuntimeModelKind exec = RuntimeModelKind::Ideal);

struct ExperimentResult {
  SimulationReport baseline;
  SimulationReport policy;
  NormalizedMetrics normalized;
};

/// Run `policy_cfg` and the static baseline on the same workload.
[[nodiscard]] ExperimentResult compare(const PaperWorkload& pw,
                                       const SimulationConfig& policy_cfg);

/// Run a single configuration.
[[nodiscard]] SimulationReport run_single(const PaperWorkload& pw,
                                          const SimulationConfig& cfg);

/// The Fig. 1-3 sweep axis: MAXSD 5 / 10 / 50 / infinite / DynAVGSD.
struct CutoffVariant {
  std::string label;
  CutoffConfig cutoff;
};
[[nodiscard]] const std::vector<CutoffVariant>& maxsd_sweep();

}  // namespace sdsched

// energy_study: explore the energy model behind Figure 9's -6% claim.
// Runs the Table-2 application mix with and without SD-Policy under three
// power models (always-on, power-down-idle, core-heavy) and reports where
// the savings come from (shorter makespan vs denser packing).
//
//   ./energy_study [--jobs=N] [--nodes=N]
#include <cstdio>
#include <stdexcept>

#include "api/experiment.h"
#include "util/cli.h"
#include "util/table.h"
#include "workload/app_profiles.h"
#include "workload/cirne.h"

int main(int argc, char** argv) try {
  using namespace sdsched;
  const CliArgs args(argc, argv);

  CirneConfig wl;
  wl.n_jobs = static_cast<int>(args.get_int("jobs", 800));
  wl.system_nodes = static_cast<int>(args.get_int("nodes", 49));
  wl.cores_per_node = 48;
  wl.max_job_nodes = 16;
  wl.log2_nodes_mean = 1.2;
  wl.log_runtime_mu = 6.1;
  wl.log_runtime_sigma = 1.3;
  wl.max_runtime = 8 * kHour;
  wl.seed = static_cast<std::uint64_t>(args.get_int("seed", 5));
  Workload workload = generate_cirne(wl);
  assign_applications(workload, wl.seed + 100);

  struct PowerModel {
    const char* label;
    EnergyConfig energy;
  };
  const PowerModel models[] = {
      {"always-on (MN4-like)", {100.0, 4.5, false}},
      {"power-down idle nodes", {100.0, 4.5, true}},
      {"core-dominated draw", {30.0, 9.0, false}},
  };

  AsciiTable table({"power model", "static kWh", "SD kWh", "saving", "makespan ratio",
                    "utilization static/SD"});
  for (const auto& model : models) {
    MachineConfig machine;
    machine.nodes = wl.system_nodes;
    machine.node = NodeConfig{2, 24};
    machine.energy = model.energy;
    const PaperWorkload pw{"energy", workload, machine};

    SimulationConfig base_cfg = baseline_config(machine);
    base_cfg.use_app_model = true;
    SimulationConfig sd_cfg = sd_config(machine, CutoffConfig::dynamic_avg());
    sd_cfg.use_app_model = true;

    const SimulationReport base = run_single(pw, base_cfg);
    const SimulationReport sd = run_single(pw, sd_cfg);
    const double saving = base.summary.energy_kwh > 0
                              ? 1.0 - sd.summary.energy_kwh / base.summary.energy_kwh
                              : 0.0;
    table.add_row(
        {model.label, AsciiTable::num(base.summary.energy_kwh, 0),
         AsciiTable::num(sd.summary.energy_kwh, 0), AsciiTable::pct(saving),
         AsciiTable::num(static_cast<double>(sd.summary.makespan) /
                             static_cast<double>(base.summary.makespan),
                         3),
         AsciiTable::pct(base.summary.utilization) + " / " +
             AsciiTable::pct(sd.summary.utilization)});
  }
  table.print();
  std::printf(
      "\nreading: with always-on nodes the saving tracks the makespan ratio\n"
      "(idle draw dominates); powering down idle nodes shifts the saving to\n"
      "packing density, which SD-Policy improves via node sharing (Fig. 9's\n"
      "-6%% on MN4 came mostly from the shorter, denser schedule).\n");
  return 0;
} catch (const std::invalid_argument& e) {
  // A malformed flag (--jobs=abc) is a usage error, not a crash.
  std::fprintf(stderr, "%s: %s\n", "energy_study", e.what());
  return 2;
}

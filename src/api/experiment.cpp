#include "api/experiment.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "api/sweep.h"
#include "metrics/summary.h"
#include "workload/app_profiles.h"
#include "workload/cirne.h"
#include "workload/synthetic_logs.h"
#include "workload/trace_catalog.h"

namespace sdsched {

namespace {

MachineConfig machine_of(int nodes, int sockets, int cores_per_socket) {
  MachineConfig machine;
  machine.nodes = nodes;
  machine.node.sockets = sockets;
  machine.node.cores_per_socket = cores_per_socket;
  return machine;
}

}  // namespace

PaperWorkload paper_workload(int which, double scale, std::uint64_t seed) {
  scale = std::clamp(scale, 0.001, 1.0);
  switch (which) {
    case 1:
    case 2: {
      CirneConfig config;
      config.n_jobs = std::max(100, static_cast<int>(5000 * scale));
      config.system_nodes = std::max(16, static_cast<int>(1024 * scale));
      config.cores_per_node = 48;
      config.max_job_nodes = std::max(2, static_cast<int>(128 * scale));
      // W2 is the SAME trace as W1 with exact user estimates (the paper
      // compares them job-for-job), so it must share W1's seed.
      config.ideal_estimates = (which == 2);
      config.seed = seed != 0 ? seed : 1;
      PaperWorkload pw;
      pw.label = which == 2 ? "W2" : "W1";
      pw.workload = generate_cirne(config);
      pw.workload.info().name = which == 2 ? "cirne-ideal" : "cirne";
      pw.machine = machine_of(config.system_nodes, 2, 24);
      return pw;
    }
    case 3: {
      RiccConfig config;
      config.scale = scale;
      if (seed != 0) config.seed = seed;
      PaperWorkload pw;
      pw.label = "W3";
      pw.workload = generate_ricc_like(config);
      pw.machine = machine_of(pw.workload.info().system_nodes, 2, 4);
      return pw;
    }
    case 4: {
      CurieConfig config;
      config.scale = scale;
      if (seed != 0) config.seed = seed;
      PaperWorkload pw;
      pw.label = "W4";
      pw.workload = generate_curie_like(config);
      pw.machine = machine_of(pw.workload.info().system_nodes, 2, 8);
      return pw;
    }
    case 5: {
      CirneConfig config;
      config.n_jobs = std::max(100, static_cast<int>(2000 * scale));
      config.system_nodes = std::max(8, static_cast<int>(49 * scale));
      config.cores_per_node = 48;
      config.max_job_nodes = std::max(2, static_cast<int>(16 * scale));
      config.target_load = 1.05;
      // The paper adapted the Cirne model to MN4's 48h queue limit: the
      // whole run spans ~2 days, so jobs are shorter and smaller than the
      // W1 defaults (Table 1: makespan 159313s for 2000 jobs on 49 nodes).
      config.log2_nodes_mean = 1.2;
      config.log2_nodes_sigma = 1.3;
      config.log_runtime_mu = 6.1;
      config.log_runtime_sigma = 1.3;
      config.max_runtime = 8 * kHour;
      config.max_req_time = kDay;
      config.seed = seed != 0 ? seed : 5;
      PaperWorkload pw;
      pw.label = "W5";
      pw.workload = generate_cirne(config);
      pw.workload.info().name = "cirne-real-run";
      assign_applications(pw.workload, config.seed + 100);
      pw.machine = machine_of(config.system_nodes, 2, 24);
      // assign_applications mutated the job list; re-prepare here (cheap,
      // idempotent) so every downstream Simulation shares the storage.
      pw.workload.prepare_for(pw.machine.nodes,
                              pw.machine.node.sockets * pw.machine.node.cores_per_socket);
      return pw;
    }
    default:
      throw std::invalid_argument("paper_workload: which must be 1..5");
  }
}

MachineConfig trace_machine(const LoadedTrace& loaded) {
  // Fixture loads keep the documented machine; synthesized traces scale the
  // machine with the workload (workload.info carries the generated size).
  const int sockets = std::max(1, loaded.info.sockets);
  return machine_of(loaded.workload.info().system_nodes, sockets,
                    std::max(1, loaded.workload.info().cores_per_node / sockets));
}

SimulationConfig baseline_config(const MachineConfig& machine) {
  SimulationConfig config;
  config.machine = machine;
  config.policy = PolicyKind::Backfill;
  return config;
}

SimulationConfig sd_config(const MachineConfig& machine, CutoffConfig cutoff,
                           RuntimeModelKind exec) {
  SimulationConfig config;
  config.machine = machine;
  config.policy = PolicyKind::SdPolicy;
  config.sd.cutoff = cutoff;
  config.execution_model = exec;
  return config;
}

SimulationReport run_single(const PaperWorkload& pw, const SimulationConfig& cfg) {
  // A one-cell sweep run inline on the calling thread. Move the report out —
  // its records vector can hold hundreds of thousands of entries.
  auto results = SweepRunner(1).run({SweepCell{pw.label, pw.workload, cfg}});
  return std::move(results.front().report);
}

ExperimentResult compare(const PaperWorkload& pw, const SimulationConfig& policy_cfg) {
  SimulationConfig base = baseline_config(policy_cfg.machine);
  base.execution_model = policy_cfg.execution_model;
  base.use_app_model = policy_cfg.use_app_model;
  base.sched = policy_cfg.sched;
  // Both cells share pw.workload's job storage and run concurrently (two
  // independent simulations; one worker each).
  auto results = SweepRunner(2).run({SweepCell{pw.label + "/baseline", pw.workload, base},
                                     SweepCell{pw.label + "/policy", pw.workload, policy_cfg}});
  ExperimentResult result;
  result.baseline = std::move(results[0].report);
  result.policy = std::move(results[1].report);
  result.normalized = normalize(result.policy.summary, result.baseline.summary);
  return result;
}

const std::vector<CutoffVariant>& maxsd_sweep() {
  // Magic-static init is thread-safe (C++11) and the vector is immutable
  // afterwards, so concurrent sweep workers may read it freely.
  static const std::vector<CutoffVariant> sweep = {
      {"MAXSD 5", CutoffConfig::max_sd(5.0)},
      {"MAXSD 10", CutoffConfig::max_sd(10.0)},
      {"MAXSD 50", CutoffConfig::max_sd(50.0)},
      {"MAXSD inf", CutoffConfig::infinite()},
      {"DynAVGSD", CutoffConfig::dynamic_avg()},
  };
  return sweep;
}

}  // namespace sdsched

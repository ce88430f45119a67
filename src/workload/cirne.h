// Cirne-Berman statistical workload model (WWC 2001), the generator behind
// the paper's workloads 1, 2 and 5.
//
// The model draws, per job: a power-of-two-biased size, a lognormal runtime
// mildly correlated with size, an overestimated user request (unless the
// "ideal" variant is selected — workload 2), and arrivals from a
// nonhomogeneous Poisson process modulated by the ANL daily cycle. The
// submit-time span is derived from a target offered load, which is how the
// paper "scaled the model to the considered system size".
#pragma once

#include <array>
#include <cstdint>

#include "util/rng.h"
#include "workload/workload.h"

namespace sdsched {

/// Hour-of-day arrival intensity (mean-normalized weights).
struct ArrivalPattern {
  std::array<double, 24> hourly_weights;

  /// ANL-style diurnal cycle: low overnight, ramp from 8h, peak 10h-17h.
  [[nodiscard]] static ArrivalPattern anl() noexcept;
  [[nodiscard]] static ArrivalPattern uniform() noexcept;
};

struct CirneConfig {
  int n_jobs = 5000;
  int system_nodes = 1024;
  int cores_per_node = 48;
  int max_job_nodes = 128;
  double target_load = 1.10;      ///< offered load; >1 builds deep queues
  std::uint64_t seed = 1;
  bool ideal_estimates = false;   ///< workload 2: req_time == base_runtime
  double pct_malleable = 1.0;     ///< fraction of jobs that are malleable
  ArrivalPattern arrivals = ArrivalPattern::anl();

  // Size distribution: log2(nodes) ~ N(mean, sigma) truncated to
  // [0, log2(max_job_nodes)]; with probability p_power2 rounded to a power
  // of two, and p_serial forces single-node jobs.
  double p_serial = 0.20;
  double p_power2 = 0.75;
  double log2_nodes_mean = 2.6;
  double log2_nodes_sigma = 1.8;

  // Runtime: lognormal (of seconds); mild positive correlation with size.
  double log_runtime_mu = 6.8;     ///< median ~ 15 min
  double log_runtime_sigma = 2.0;
  double size_runtime_coupling = 0.15;  ///< added to mu per log2(nodes)
  SimTime max_runtime = 2 * kDay;

  // User estimates: req = runtime * (1 + lognormal overshoot), rounded up to
  // scheduler-friendly buckets, capped.
  double overshoot_mu = 0.9;
  double overshoot_sigma = 1.0;
  SimTime max_req_time = 3 * kDay;
};

/// Generate a workload from the model. Deterministic in (config, seed).
/// Throws std::invalid_argument naming the field when system_nodes,
/// cores_per_node or max_job_nodes is below 1.
[[nodiscard]] Workload generate_cirne(const CirneConfig& config);

/// Shared machinery: place `n_jobs` arrivals over ~`span` seconds following
/// `pattern` (nonhomogeneous Poisson, hour-granular thinning).
[[nodiscard]] std::vector<SimTime> generate_arrivals(int n_jobs, SimTime span,
                                                     const ArrivalPattern& pattern, Rng& rng);

}  // namespace sdsched

#include "workload/cirne.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/logging.h"

namespace sdsched {

ArrivalPattern ArrivalPattern::anl() noexcept {
  // Diurnal weights loosely following the ANL trace's hourly arrival
  // histogram: quiet 0h-7h, morning ramp, sustained working-hours peak,
  // evening tail. Mean-normalized below.
  ArrivalPattern p{{0.35, 0.30, 0.28, 0.25, 0.25, 0.30, 0.40, 0.60,
                    1.00, 1.45, 1.75, 1.85, 1.80, 1.70, 1.80, 1.85,
                    1.75, 1.55, 1.30, 1.05, 0.85, 0.70, 0.55, 0.45}};
  double sum = 0.0;
  for (const double w : p.hourly_weights) sum += w;
  for (double& w : p.hourly_weights) w *= 24.0 / sum;
  return p;
}

ArrivalPattern ArrivalPattern::uniform() noexcept {
  ArrivalPattern p{};
  p.hourly_weights.fill(1.0);
  return p;
}

std::vector<SimTime> generate_arrivals(int n_jobs, SimTime span, const ArrivalPattern& pattern,
                                       Rng& rng) {
  std::vector<SimTime> arrivals;
  arrivals.reserve(n_jobs);
  if (n_jobs <= 0) return arrivals;
  span = std::max<SimTime>(span, kHour);
  // Expected arrivals per hour bucket = base * weight(hour-of-day); draw a
  // Poisson count per bucket (via exponential gaps) until n_jobs placed.
  const double base_per_hour = static_cast<double>(n_jobs) / (static_cast<double>(span) / kHour);
  SimTime hour_start = 0;
  while (static_cast<int>(arrivals.size()) < n_jobs) {
    const auto hour_of_day = static_cast<std::size_t>((hour_start / kHour) % 24);
    const double rate = base_per_hour * pattern.hourly_weights[hour_of_day] / kHour;
    if (rate > 0.0) {
      double t = static_cast<double>(hour_start) + rng.exponential(rate);
      while (t < static_cast<double>(hour_start + kHour) &&
             static_cast<int>(arrivals.size()) < n_jobs) {
        arrivals.push_back(static_cast<SimTime>(t));
        t += rng.exponential(rate);
      }
    }
    hour_start += kHour;
  }
  std::sort(arrivals.begin(), arrivals.end());
  return arrivals;
}

namespace {

/// Round a requested time up to scheduler-friendly buckets, as users do.
SimTime round_request(SimTime req) noexcept {
  constexpr SimTime buckets[] = {10 * kMinute, 30 * kMinute, kHour,     2 * kHour,
                                 4 * kHour,    8 * kHour,    12 * kHour, kDay,
                                 2 * kDay,     3 * kDay,     4 * kDay};
  for (const SimTime b : buckets) {
    if (req <= b) return b;
  }
  return req;
}

int draw_nodes(const CirneConfig& c, Rng& rng) {
  if (rng.chance(c.p_serial)) return 1;
  const double max_log2 = std::log2(static_cast<double>(c.max_job_nodes));
  double l = rng.normal(c.log2_nodes_mean, c.log2_nodes_sigma);
  l = std::clamp(l, 0.0, max_log2);
  if (rng.chance(c.p_power2)) {
    return 1 << static_cast<int>(std::lround(l));
  }
  const int nodes = static_cast<int>(std::lround(std::exp2(l)));
  return std::clamp(nodes, 1, c.max_job_nodes);
}

}  // namespace

Workload generate_cirne(const CirneConfig& config) {
  // A zero capacity would divide the offered load by zero below, and a
  // zero max_job_nodes leaves draw_nodes an empty size range.
  const auto require_positive = [](const char* field, int value) {
    if (value < 1) {
      throw std::invalid_argument(std::string("generate_cirne: ") + field +
                                  " must be at least 1, got " + std::to_string(value));
    }
  };
  require_positive("system_nodes", config.system_nodes);
  require_positive("cores_per_node", config.cores_per_node);
  require_positive("max_job_nodes", config.max_job_nodes);
  Rng rng(config.seed);
  Rng size_rng = rng.fork();
  Rng runtime_rng = rng.fork();
  Rng estimate_rng = rng.fork();
  Rng arrival_rng = rng.fork();
  Rng class_rng = rng.fork();

  std::vector<JobSpec> jobs;
  jobs.reserve(config.n_jobs);
  double total_work = 0.0;
  for (int i = 0; i < config.n_jobs; ++i) {
    JobSpec spec;
    const int nodes = draw_nodes(config, size_rng);
    spec.req_cpus = nodes * config.cores_per_node;
    const double mu =
        config.log_runtime_mu + config.size_runtime_coupling * std::log2(std::max(1, nodes));
    auto runtime =
        static_cast<SimTime>(runtime_rng.lognormal(mu, config.log_runtime_sigma));
    spec.base_runtime = std::clamp<SimTime>(runtime, 1, config.max_runtime);
    if (config.ideal_estimates) {
      spec.req_time = spec.base_runtime;
    } else {
      const double overshoot =
          estimate_rng.lognormal(config.overshoot_mu, config.overshoot_sigma);
      const auto req = static_cast<SimTime>(
          static_cast<double>(spec.base_runtime) * (1.0 + overshoot));
      spec.req_time = std::min(round_request(std::max(req, spec.base_runtime)),
                               config.max_req_time);
      spec.req_time = std::max(spec.req_time, spec.base_runtime);
    }
    spec.malleability = class_rng.chance(config.pct_malleable)
                            ? MalleabilityClass::Malleable
                            : MalleabilityClass::Rigid;
    spec.user_id = static_cast<int>(class_rng.uniform_int(0, 199));
    jobs.push_back(spec);
    total_work += static_cast<double>(spec.base_runtime) * spec.req_cpus;
  }

  const double capacity =
      static_cast<double>(config.system_nodes) * config.cores_per_node;
  const auto span =
      static_cast<SimTime>(total_work / (capacity * std::max(0.01, config.target_load)));
  const auto arrivals =
      generate_arrivals(config.n_jobs, span, config.arrivals, arrival_rng);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].submit = arrivals[i];
  }

  Workload workload(WorkloadInfo{"cirne", config.system_nodes, config.cores_per_node},
                    std::move(jobs));
  workload.prepare_for(config.system_nodes, config.cores_per_node);
  log_info("cirne", "generated ", workload.size(), " jobs over ",
           format_duration(span), ", offered load ",
           workload.offered_load(config.system_nodes * config.cores_per_node));
  return workload;
}

}  // namespace sdsched

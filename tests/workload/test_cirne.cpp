#include "workload/cirne.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/rng.h"

namespace sdsched {
namespace {

CirneConfig small_config() {
  CirneConfig config;
  config.n_jobs = 500;
  config.system_nodes = 64;
  config.cores_per_node = 48;
  config.max_job_nodes = 16;
  config.seed = 99;
  return config;
}

TEST(Cirne, GeneratesRequestedJobCount) {
  const Workload w = generate_cirne(small_config());
  EXPECT_EQ(w.size(), 500u);
}

TEST(Cirne, DeterministicInSeed) {
  const Workload a = generate_cirne(small_config());
  const Workload b = generate_cirne(small_config());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.jobs()[i].submit, b.jobs()[i].submit);
    EXPECT_EQ(a.jobs()[i].base_runtime, b.jobs()[i].base_runtime);
    EXPECT_EQ(a.jobs()[i].req_cpus, b.jobs()[i].req_cpus);
  }
}

TEST(Cirne, DifferentSeedsDiffer) {
  auto config = small_config();
  const Workload a = generate_cirne(config);
  config.seed = 100;
  const Workload b = generate_cirne(config);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size() && !any_diff; ++i) {
    any_diff = a.jobs()[i].base_runtime != b.jobs()[i].base_runtime;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Cirne, RespectsSizeBounds) {
  const auto config = small_config();
  const Workload w = generate_cirne(config);
  for (const auto& spec : w.jobs()) {
    EXPECT_GE(spec.req_nodes, 1);
    EXPECT_LE(spec.req_nodes, config.max_job_nodes);
    EXPECT_GE(spec.base_runtime, 1);
    EXPECT_LE(spec.base_runtime, config.max_runtime);
    EXPECT_GE(spec.req_time, spec.base_runtime);
  }
}

// An empty machine or size range errors instead of dividing by zero.
TEST(Cirne, RejectsEmptyMachine) {
  for (int CirneConfig::*field :
       {&CirneConfig::system_nodes, &CirneConfig::cores_per_node, &CirneConfig::max_job_nodes}) {
    CirneConfig config = small_config();
    config.*field = 0;
    EXPECT_THROW((void)generate_cirne(config), std::invalid_argument);
  }
}

TEST(Cirne, IdealEstimatesMatchRuntime) {
  auto config = small_config();
  config.ideal_estimates = true;
  const Workload w = generate_cirne(config);
  for (const auto& spec : w.jobs()) {
    EXPECT_EQ(spec.req_time, spec.base_runtime);
  }
}

TEST(Cirne, NonIdealEstimatesOverestimate) {
  const Workload w = generate_cirne(small_config());
  std::size_t over = 0;
  for (const auto& spec : w.jobs()) {
    if (spec.req_time > spec.base_runtime) ++over;
  }
  // The Cirne user-estimate model overshoots for nearly all jobs.
  EXPECT_GT(over, w.size() * 8 / 10);
}

TEST(Cirne, OfferedLoadNearTarget) {
  auto config = small_config();
  config.target_load = 1.2;
  const Workload w = generate_cirne(config);
  const double load = w.offered_load(config.system_nodes * config.cores_per_node);
  EXPECT_GT(load, 0.8);
  EXPECT_LT(load, 1.8);
}

TEST(Cirne, MalleabilityFractionHonoured) {
  auto config = small_config();
  config.pct_malleable = 0.5;
  const Workload w = generate_cirne(config);
  std::size_t malleable = 0;
  for (const auto& spec : w.jobs()) {
    if (spec.malleability == MalleabilityClass::Malleable) ++malleable;
  }
  const double frac = static_cast<double>(malleable) / static_cast<double>(w.size());
  EXPECT_NEAR(frac, 0.5, 0.1);
}

TEST(Cirne, SubmitsAreSorted) {
  const Workload w = generate_cirne(small_config());
  for (std::size_t i = 1; i < w.size(); ++i) {
    EXPECT_LE(w.jobs()[i - 1].submit, w.jobs()[i].submit);
  }
}

TEST(ArrivalPattern, AnlIsMeanNormalized) {
  const auto pattern = ArrivalPattern::anl();
  double sum = 0.0;
  for (const double w : pattern.hourly_weights) sum += w;
  EXPECT_NEAR(sum, 24.0, 1e-9);
  // Working hours are busier than night.
  EXPECT_GT(pattern.hourly_weights[11], pattern.hourly_weights[3] * 3);
}

TEST(ArrivalPattern, GenerateArrivalsCountAndOrder) {
  Rng rng(5);
  const auto arrivals = generate_arrivals(200, 2 * kDay, ArrivalPattern::anl(), rng);
  ASSERT_EQ(arrivals.size(), 200u);
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_LE(arrivals[i - 1], arrivals[i]);
  }
  EXPECT_GE(arrivals.front(), 0);
}

TEST(ArrivalPattern, DiurnalConcentration) {
  Rng rng(6);
  const auto arrivals = generate_arrivals(5000, 10 * kDay, ArrivalPattern::anl(), rng);
  std::size_t work_hours = 0;
  for (const SimTime t : arrivals) {
    const SimTime hour = second_of_day(t) / kHour;
    if (hour >= 9 && hour < 18) ++work_hours;
  }
  // 9 of 24 hours carry well over half the arrivals under the ANL cycle.
  EXPECT_GT(work_hours, arrivals.size() / 2);
}

}  // namespace
}  // namespace sdsched

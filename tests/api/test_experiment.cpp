#include "api/experiment.h"

#include <gtest/gtest.h>

namespace sdsched {
namespace {

TEST(Experiment, PaperWorkloadGeometry) {
  // Machine shapes from Table 1 (scaled): W1/W2/W5 are 48-core MN4-like
  // nodes, W3 is RICC's 8-core nodes, W4 Curie's 16-core nodes.
  const struct {
    int which;
    int cores_per_node;
    const char* label;
  } expected[] = {
      {1, 48, "W1"}, {2, 48, "W2"}, {3, 8, "W3"}, {4, 16, "W4"}, {5, 48, "W5"},
  };
  for (const auto& e : expected) {
    const PaperWorkload pw = paper_workload(e.which, 0.05);
    EXPECT_EQ(pw.label, e.label);
    EXPECT_EQ(pw.machine.node.sockets * pw.machine.node.cores_per_socket, e.cores_per_node);
    EXPECT_EQ(pw.workload.info().cores_per_node, e.cores_per_node);
    EXPECT_GT(pw.workload.size(), 0u);
    EXPECT_EQ(pw.workload.info().system_nodes, pw.machine.nodes);
  }
}

TEST(Experiment, InvalidWorkloadIdThrows) {
  EXPECT_THROW((void)paper_workload(0, 0.1), std::invalid_argument);
  EXPECT_THROW((void)paper_workload(6, 0.1), std::invalid_argument);
}

TEST(Experiment, W2IsW1WithExactEstimates) {
  // The paper compares W1 and W2 job-for-job: same trace, ideal estimates.
  const PaperWorkload w1 = paper_workload(1, 0.05);
  const PaperWorkload w2 = paper_workload(2, 0.05);
  ASSERT_EQ(w1.workload.size(), w2.workload.size());
  for (std::size_t i = 0; i < w1.workload.size(); ++i) {
    const JobSpec& a = w1.workload.jobs()[i];
    const JobSpec& b = w2.workload.jobs()[i];
    EXPECT_EQ(a.submit, b.submit);
    EXPECT_EQ(a.base_runtime, b.base_runtime);
    EXPECT_EQ(a.req_cpus, b.req_cpus);
    EXPECT_EQ(b.req_time, b.base_runtime);  // ideal estimates
    EXPECT_GE(a.req_time, a.base_runtime);
  }
}

TEST(Experiment, W5CarriesApplicationProfiles) {
  const PaperWorkload w5 = paper_workload(5, 0.1);
  for (const auto& spec : w5.workload.jobs()) {
    EXPECT_GE(spec.app_profile, 0);
  }
}

TEST(Experiment, ConfigsSelectPolicies) {
  MachineConfig machine;
  EXPECT_EQ(baseline_config(machine).policy, PolicyKind::Backfill);
  const SimulationConfig sd = sd_config(machine, CutoffConfig::max_sd(10.0));
  EXPECT_EQ(sd.policy, PolicyKind::SdPolicy);
  EXPECT_EQ(sd.sd.cutoff.kind, CutoffKind::Static);
  EXPECT_DOUBLE_EQ(sd.sd.cutoff.value, 10.0);
}

TEST(Experiment, MaxsdSweepMatchesPaperAxis) {
  const auto& sweep = maxsd_sweep();
  ASSERT_EQ(sweep.size(), 5u);
  EXPECT_EQ(sweep[0].label, "MAXSD 5");
  EXPECT_EQ(sweep[3].cutoff.kind, CutoffKind::Infinite);
  EXPECT_EQ(sweep[4].cutoff.kind, CutoffKind::DynamicAverage);
}

TEST(Experiment, CompareNormalizesAgainstBaseline) {
  const PaperWorkload pw = paper_workload(1, 0.02);
  const ExperimentResult result =
      compare(pw, sd_config(pw.machine, CutoffConfig::max_sd(10.0)));
  EXPECT_EQ(result.baseline.policy, "backfill");
  EXPECT_EQ(result.policy.policy, "sd-policy");
  EXPECT_GT(result.normalized.avg_slowdown, 0.0);
  EXPECT_NEAR(result.normalized.makespan,
              static_cast<double>(result.policy.summary.makespan) /
                  static_cast<double>(result.baseline.summary.makespan),
              1e-9);
}

TEST(Experiment, ScaleClampedToSaneRange) {
  const PaperWorkload tiny = paper_workload(1, 1e-9);  // clamped to 0.001
  EXPECT_GE(tiny.machine.nodes, 16);
  EXPECT_GE(tiny.workload.size(), 100u);
}

TEST(NormalizeMetrics, RatioAndDegenerateBaselines) {
  MetricsSummary policy;
  policy.makespan = 80;
  policy.avg_response = 50.0;
  policy.avg_slowdown = 2.0;
  policy.avg_wait = 10.0;
  policy.energy_kwh = 9.0;
  MetricsSummary baseline;
  baseline.makespan = 100;
  baseline.avg_response = 100.0;
  baseline.avg_slowdown = 4.0;
  baseline.avg_wait = 40.0;
  baseline.energy_kwh = 10.0;
  const NormalizedMetrics norm = normalize(policy, baseline);
  EXPECT_DOUBLE_EQ(norm.makespan, 0.8);
  EXPECT_DOUBLE_EQ(norm.avg_response, 0.5);
  EXPECT_DOUBLE_EQ(norm.avg_slowdown, 0.5);
  EXPECT_DOUBLE_EQ(norm.avg_wait, 0.25);
  EXPECT_DOUBLE_EQ(norm.energy, 0.9);
  // Zero baselines normalize to 1 (no signal), not infinity.
  const NormalizedMetrics degenerate = normalize(policy, MetricsSummary{});
  EXPECT_DOUBLE_EQ(degenerate.makespan, 1.0);
  EXPECT_DOUBLE_EQ(degenerate.energy, 1.0);
}

}  // namespace
}  // namespace sdsched

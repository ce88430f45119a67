// Whole-simulation tests with hand-computed schedules for the static
// policies (FCFS and backfill) plus kernel bookkeeping invariants.
#include "api/simulation.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "api/experiment.h"

namespace sdsched {
namespace {

MachineConfig small_machine(int nodes = 4) {
  MachineConfig config;
  config.nodes = nodes;
  config.node = NodeConfig{2, 24};
  return config;
}

JobSpec job_of(SimTime submit, SimTime runtime, SimTime req, int nodes_requested,
               MalleabilityClass cls = MalleabilityClass::Malleable) {
  JobSpec spec;
  spec.submit = submit;
  spec.base_runtime = runtime;
  spec.req_time = req;
  spec.req_cpus = nodes_requested * 48;
  spec.malleability = cls;
  return spec;
}

SimulationConfig config_for(PolicyKind policy, int nodes = 4) {
  SimulationConfig config;
  config.machine = small_machine(nodes);
  config.policy = policy;
  return config;
}

TEST(Simulation, SingleJobRunsToCompletion) {
  Workload w;
  w.add(job_of(0, 100, 100, 2));
  SimulationReport report = Simulation(config_for(PolicyKind::Backfill), w).run();
  ASSERT_EQ(report.records.size(), 1u);
  EXPECT_EQ(report.records[0].start, 0);
  EXPECT_EQ(report.records[0].end, 100);
  EXPECT_EQ(report.summary.makespan, 100);
  EXPECT_DOUBLE_EQ(report.summary.avg_slowdown, 1.0);
}

TEST(Simulation, RejectsShardCountOtherThanOne) {
  Workload w;
  w.add(job_of(0, 100, 100, 2));
  for (const int count : {0, 2, 4, -1}) {
    SimulationConfig config = config_for(PolicyKind::SdPolicy);
    config.shards.count = count;
    EXPECT_THROW((void)Simulation(config, w), std::invalid_argument) << count << " shards";
  }
}

// A submit near INT64_MAX is refused when the workload is prepared, with
// an exception, instead of aborting in the event kernel.
TEST(Simulation, RejectsOverflowingSubmit) {
  Workload w;
  w.add(job_of(0, 100, 100, 2));
  w.add(job_of(INT64_MAX - 10, 100, 100, 2));
  for (const PolicyKind policy : {PolicyKind::Backfill, PolicyKind::SdPolicy}) {
    try {
      const Simulation sim(config_for(policy), w);
      ADD_FAILURE() << "overflowing submit accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "Workload job 1: submit 9223372036854775797 is beyond +/-4294967296");
    }
  }
}

TEST(Simulation, RejectsOutOfRangeSchedConfig) {
  Workload w;
  w.add(job_of(0, 100, 100, 2));
  const auto error_for = [&w](SimulationConfig config) -> std::string {
    try {
      const Simulation sim(config, w);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  const auto with_sched = [](auto&& mutate) {
    SimulationConfig config = config_for(PolicyKind::SdPolicy);
    mutate(config.sched);
    return config;
  };
  EXPECT_EQ(error_for(with_sched([](SchedConfig& c) { c.bf_interval = -1; })),
            "SchedConfig.bf_interval must be >= 0, got -1");
  EXPECT_EQ(error_for(with_sched([](SchedConfig& c) { c.reservation_depth = -1; })),
            "SchedConfig.reservation_depth must be >= 0, got -1");
  EXPECT_EQ(error_for(with_sched([](SchedConfig& c) { c.bf_max_jobs = 0; })),
            "SchedConfig.bf_max_jobs must be >= 1, got 0");
  EXPECT_EQ(error_for(with_sched([](SchedConfig& c) { c.bf_max_jobs = -5; })),
            "SchedConfig.bf_max_jobs must be >= 1, got -5");

  // The in-tree configurations stay valid: both experiment presets, the
  // ablation's EASY (depth 1) baseline, and bf_interval 0 (no ticks).
  const MachineConfig machine = small_machine();
  EXPECT_EQ(error_for(baseline_config(machine)), "accepted");
  EXPECT_EQ(error_for(sd_config(machine, CutoffConfig::dynamic_avg())), "accepted");
  SimulationConfig easy = baseline_config(machine);
  easy.sched.reservation_depth = 1;
  EXPECT_EQ(error_for(easy), "accepted");
  EXPECT_EQ(error_for(with_sched([](SchedConfig& c) {
              c.bf_interval = 0;
              c.reservation_depth = 0;
              c.bf_max_jobs = 1;
            })),
            "accepted");
}

TEST(Simulation, RejectsOutOfRangeReconfigOverhead) {
  Workload w;
  w.add(job_of(0, 100, 100, 2));
  const auto error_for = [&w](SimTime overhead) -> std::string {
    SimulationConfig config = config_for(PolicyKind::SdPolicy);
    config.reconfig_overhead = overhead;
    try {
      const Simulation sim(config, w);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  EXPECT_EQ(error_for(-1),
            "SimulationConfig.reconfig_overhead must be in [0, 4294967296] s, got -1");
  EXPECT_EQ(error_for((SimTime{1} << 32) + 1),
            "SimulationConfig.reconfig_overhead must be in [0, 4294967296] s, got 4294967297");
  // The bounds themselves, and the ablation's checkpoint/restart scale.
  EXPECT_EQ(error_for(0), "accepted");
  EXPECT_EQ(error_for(300), "accepted");
  EXPECT_EQ(error_for(SimTime{1} << 32), "accepted");
}

TEST(Simulation, EveryJobCompletesExactlyOnce) {
  Workload w;
  for (int i = 0; i < 50; ++i) {
    w.add(job_of(i * 10, 100 + i, 200 + i, 1 + i % 4));
  }
  for (const PolicyKind policy :
       {PolicyKind::Fcfs, PolicyKind::Backfill, PolicyKind::SdPolicy}) {
    SimulationReport report = Simulation(config_for(policy), w).run();
    ASSERT_EQ(report.records.size(), 50u) << to_string(policy);
    std::vector<bool> seen(50, false);
    for (const auto& record : report.records) {
      EXPECT_FALSE(seen[record.id]) << "job completed twice";
      seen[record.id] = true;
      EXPECT_GE(record.start, record.submit);
      EXPECT_GT(record.end, record.start);
    }
  }
}

TEST(Simulation, FcfsHeadOfLineBlocking) {
  // A (2n,100s), B (4n) blocks, C (1n, 50s) must wait behind B under FCFS.
  Workload w;
  w.add(job_of(0, 100, 100, 2));
  w.add(job_of(1, 100, 100, 4));
  w.add(job_of(2, 50, 50, 1));
  SimulationReport report = Simulation(config_for(PolicyKind::Fcfs), w).run();
  EXPECT_EQ(report.records[1].start, 100);  // B after A
  EXPECT_EQ(report.records[2].start, 200);  // C after B
}

TEST(Simulation, BackfillLetsShortJobJumpAhead) {
  // Same workload: backfill starts C at t=2 on the free nodes.
  Workload w;
  w.add(job_of(0, 100, 100, 2));
  w.add(job_of(1, 100, 100, 4));
  w.add(job_of(2, 50, 50, 1));
  SimulationReport report = Simulation(config_for(PolicyKind::Backfill), w).run();
  // Records are in completion order; look jobs up by id.
  SimTime start_b = -1;
  SimTime start_c = -1;
  for (const auto& record : report.records) {
    if (record.id == 1) start_b = record.start;
    if (record.id == 2) start_c = record.start;
  }
  EXPECT_EQ(start_c, 2);    // C backfills immediately
  EXPECT_EQ(start_b, 100);  // B waits for A
}

TEST(Simulation, RequestedTimesGovernReservationsNotReality) {
  // A runs 50s but requested 1000s. B (4 nodes) reserves at predicted end
  // 1000 — but A's real completion at 50 triggers a pass that starts B.
  Workload w;
  w.add(job_of(0, 50, 1000, 2));
  w.add(job_of(1, 100, 100, 4));
  SimulationReport report = Simulation(config_for(PolicyKind::Backfill), w).run();
  EXPECT_EQ(report.records[0].end, 50);
  EXPECT_EQ(report.records[1].start, 50);
}

TEST(Simulation, UtilizationAndEnergyAccounted) {
  Workload w;
  w.add(job_of(0, 100, 100, 4));
  SimulationReport report = Simulation(config_for(PolicyKind::Backfill), w).run();
  EXPECT_GT(report.summary.energy_kwh, 0.0);
  EXPECT_NEAR(report.summary.utilization, 1.0, 1e-9);
}

TEST(Simulation, RunIsOneShot) {
  Workload w;
  w.add(job_of(0, 10, 10, 1));
  Simulation sim(config_for(PolicyKind::Backfill), w);
  (void)sim.run();
  EXPECT_THROW((void)sim.run(), std::logic_error);
}

TEST(Simulation, EventBudgetStopsRunawaySimulations) {
  Workload w;
  for (int i = 0; i < 20; ++i) w.add(job_of(i, 100, 100, 1));
  SimulationConfig config = config_for(PolicyKind::Backfill);
  config.max_events = 5;
  SimulationReport report = Simulation(config, w).run();
  EXPECT_LE(report.events_fired, 5u);
  EXPECT_LT(report.records.size(), 20u);
}

TEST(Simulation, OversizedJobIsCancelledNotLooped) {
  Workload w;
  w.add(job_of(0, 100, 100, 4));
  JobSpec too_big = job_of(1, 100, 100, 99);
  w.add(too_big);  // clamped by prepare_for to machine size, so runnable
  SimulationReport report = Simulation(config_for(PolicyKind::Backfill), w).run();
  EXPECT_EQ(report.records.size(), 2u);
  EXPECT_EQ(report.cancelled_jobs, 0u);
}

TEST(Simulation, PeriodicTicksDoNotChangeStaticSchedule) {
  Workload w;
  w.add(job_of(0, 100, 100, 2));
  w.add(job_of(1, 100, 100, 4));
  w.add(job_of(2, 50, 50, 1));
  SimulationConfig no_tick = config_for(PolicyKind::Backfill);
  no_tick.sched.bf_interval = 0;
  SimulationConfig ticked = config_for(PolicyKind::Backfill);
  ticked.sched.bf_interval = 10;
  SimulationReport a = Simulation(no_tick, w).run();
  SimulationReport b = Simulation(ticked, w).run();
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].start, b.records[i].start);
    EXPECT_EQ(a.records[i].end, b.records[i].end);
  }
}

TEST(Simulation, DeterministicAcrossRuns) {
  Workload w;
  for (int i = 0; i < 30; ++i) w.add(job_of(i * 7, 50 + i * 3, 100 + i * 3, 1 + i % 3));
  SimulationReport a = Simulation(config_for(PolicyKind::SdPolicy), w).run();
  SimulationReport b = Simulation(config_for(PolicyKind::SdPolicy), w).run();
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].id, b.records[i].id);
    EXPECT_EQ(a.records[i].start, b.records[i].start);
    EXPECT_EQ(a.records[i].end, b.records[i].end);
  }
  EXPECT_EQ(a.summary.makespan, b.summary.makespan);
}

}  // namespace
}  // namespace sdsched

// End-to-end SD-Policy behaviour: hand-computed malleable schedules,
// shrink/expand timing under both runtime models, and the mate-early-exit
// path of §4.3.
#include <gtest/gtest.h>

#include <algorithm>

#include "../scoped_env.h"
#include "api/experiment.h"
#include "api/simulation.h"
#include "core/sd_policy.h"
#include "workload/cirne.h"

namespace sdsched {
namespace {

MachineConfig machine_of(int nodes) {
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

SimulationConfig sd(int nodes, RuntimeModelKind model = RuntimeModelKind::WorstCase) {
  SimulationConfig config;
  config.machine = machine_of(nodes);
  config.policy = PolicyKind::SdPolicy;
  config.execution_model = model;
  // Hand-computed scenarios run near-empty machines where the dynamic
  // cut-off would (correctly) refuse everything; pin it open.
  config.sd.cutoff = CutoffConfig::infinite();
  return config;
}

TEST(SdEndToEnd, GuestSchedulesImmediatelyAndDoubles) {
  // Mate: 2 nodes for 10000s. Guest: 2 nodes, 100s, arrives at 10.
  // Statically it would wait until 10000. SD starts it at 10 with half
  // cores; worst-case execution doubles it: end = 10 + 200.
  Workload w;
  w.add(job_of(0, 10000, 10000, 2));
  w.add(job_of(10, 100, 100, 2));
  SimulationReport report = Simulation(sd(2), w).run();
  ASSERT_EQ(report.records.size(), 2u);
  const JobRecord& guest = report.records[0];  // guest finishes first
  EXPECT_EQ(guest.id, 1u);
  EXPECT_TRUE(guest.was_guest);
  EXPECT_EQ(guest.start, 10);
  EXPECT_EQ(guest.end, 210);
  EXPECT_EQ(report.malleable_starts, 1u);
}

TEST(SdEndToEnd, MateStretchedByExactlyLostProgress) {
  // Mate (10000s) shares [10, 210): loses half rate for 200s -> +100s.
  Workload w;
  w.add(job_of(0, 10000, 10000, 2));
  w.add(job_of(10, 100, 100, 2));
  SimulationReport report = Simulation(sd(2), w).run();
  const JobRecord& mate = report.records[1];
  EXPECT_EQ(mate.id, 0u);
  EXPECT_TRUE(mate.was_mate);
  EXPECT_EQ(mate.end, 10100);
}

TEST(SdEndToEnd, IdealModelSameStoryHere) {
  // With a uniform split ideal == worst-case (both 0.5): same schedule.
  Workload w;
  w.add(job_of(0, 10000, 10000, 2));
  w.add(job_of(10, 100, 100, 2));
  SimulationReport report = Simulation(sd(2, RuntimeModelKind::Ideal), w).run();
  EXPECT_EQ(report.records[0].end, 210);
  EXPECT_EQ(report.records[1].end, 10100);
}

TEST(SdEndToEnd, MateEarlyExitExpandsGuest) {
  // Mate requested 10000 but really runs 300s. Guest (2n, 400s) shares from
  // t=10 at half speed. Mate ends at 310 (with stretch: lost 150 by then ->
  // ends ~460). After the mate leaves, the guest expands to full nodes.
  // Under the worst-case model the guest sees min over nodes; both nodes
  // freed together, so it genuinely accelerates.
  Workload w;
  w.add(job_of(0, 300, 10000, 2));
  w.add(job_of(10, 400, 400, 2));
  SimulationReport report = Simulation(sd(2), w).run();
  ASSERT_EQ(report.records.size(), 2u);
  const JobRecord& mate = report.records[0];
  const JobRecord& guest = report.records[1];
  EXPECT_EQ(mate.id, 0u);
  // Mate: 10s full + shrunk at 0.5 until work done: 300 = 10 + 0.5*t ->
  // t = 580 -> end at 590.
  EXPECT_EQ(mate.end, 590);
  // Guest: [10,590) at 0.5 -> 290 work done; 110 left at full -> 700.
  EXPECT_TRUE(guest.was_guest);
  EXPECT_EQ(guest.end, 700);
  EXPECT_GT(report.drom_expand_ops, 0u);
}

TEST(SdEndToEnd, SlowdownDecisionRespectsEstimates) {
  // Blocking job requested 400s: guest (100s) would wait ~390 statically
  // (static_end 500) but pay only +100 of increase (mall_end 210), and it
  // fits inside the mate's allocation -> malleable. With a 90s blocker,
  // waiting is cheaper (static_end 190 < mall_end 210) and SD must refuse.
  {
    Workload w;
    w.add(job_of(0, 150, 400, 2));
    w.add(job_of(10, 100, 100, 2));
    SimulationReport report = Simulation(sd(2), w).run();
    EXPECT_EQ(report.malleable_starts, 1u);
  }
  {
    Workload w;
    w.add(job_of(0, 90, 90, 2));  // static wait only ~80s
    w.add(job_of(10, 100, 100, 2));
    SimulationReport report = Simulation(sd(2), w).run();
    EXPECT_EQ(report.malleable_starts, 0u);
    EXPECT_EQ(report.records[1].start, 90);  // waited for the static slot
  }
}

TEST(SdEndToEnd, TwoMatesServeOneBigGuest) {
  // Two 1-node mates, guest needs 2 nodes: plan uses both (m=2).
  Workload w;
  w.add(job_of(0, 10000, 10000, 1));
  w.add(job_of(0, 10000, 10000, 1));
  w.add(job_of(10, 100, 100, 2));
  SimulationReport report = Simulation(sd(2), w).run();
  const JobRecord& guest = report.records[0];
  EXPECT_TRUE(guest.was_guest);
  EXPECT_EQ(guest.start, 10);
  std::size_t mates = 0;
  for (const auto& record : report.records) {
    if (record.was_mate) ++mates;
  }
  EXPECT_EQ(mates, 2u);
}

TEST(SdEndToEnd, RigidWorkloadDegeneratesToBackfill) {
  Workload w;
  for (int i = 0; i < 20; ++i) {
    w.add(job_of(i * 5, 100 + i, 150 + i, 1 + i % 3, MalleabilityClass::Rigid));
  }
  SimulationConfig sd_cfg = sd(4);
  SimulationConfig bf_cfg = sd_cfg;
  bf_cfg.policy = PolicyKind::Backfill;
  SimulationReport a = Simulation(sd_cfg, w).run();
  SimulationReport b = Simulation(bf_cfg, w).run();
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].start, b.records[i].start);
    EXPECT_EQ(a.records[i].end, b.records[i].end);
  }
  EXPECT_EQ(a.malleable_starts, 0u);
}

TEST(SdEndToEnd, GuestCompletionRestoresMateSpeed) {
  // After the guest ends at 210, the mate expands back: verify via DROM
  // expand ops and the exact mate end (10100, not later).
  Workload w;
  w.add(job_of(0, 10000, 10000, 2));
  w.add(job_of(10, 100, 100, 2));
  SimulationReport report = Simulation(sd(2), w).run();
  EXPECT_GE(report.drom_expand_ops, 2u);  // one per node
  EXPECT_EQ(report.records[1].end, 10100);
}

TEST(SdEndToEnd, ChainedGuestsOverLifetime) {
  // One long mate hosts a guest; when it completes, another can follow.
  Workload w;
  w.add(job_of(0, 100000, 100000, 2));
  w.add(job_of(10, 100, 100, 2));
  w.add(job_of(5000, 100, 100, 2));
  SimulationReport report = Simulation(sd(2), w).run();
  EXPECT_EQ(report.malleable_starts, 2u);
  std::size_t guests = 0;
  for (const auto& record : report.records) {
    if (record.was_guest) ++guests;
  }
  EXPECT_EQ(guests, 2u);
}

TEST(SdEndToEnd, AppModelRealRunImprovesEnergy) {
  // Table-2 style mix on a small machine: SD should not increase energy
  // (the Fig. 9 claim, driven by utilization).
  Workload w;
  int profile = 0;
  for (int i = 0; i < 60; ++i) {
    JobSpec spec = job_of(i * 50, 400 + (i % 5) * 100, 900 + (i % 5) * 100, 1 + i % 2);
    spec.app_profile = profile;
    profile = (profile + 1) % 5;
    w.add(spec);
  }
  SimulationConfig sd_cfg = sd(3);
  sd_cfg.use_app_model = true;
  SimulationConfig bf_cfg = sd_cfg;
  bf_cfg.policy = PolicyKind::Backfill;
  SimulationReport a = Simulation(sd_cfg, w).run();
  SimulationReport b = Simulation(bf_cfg, w).run();
  EXPECT_LE(a.summary.makespan, static_cast<SimTime>(b.summary.makespan * 1.05));
  EXPECT_LE(a.summary.avg_slowdown, b.summary.avg_slowdown * 1.05);
}

// A whole saturated SD run under the crosscheck switch. The workload is
// sized for 8-core nodes but runs on 16-core ones, so every job leaves idle
// cores beside it, and a guest could take them without shrinking its mate.
// Still no mate takes a second guest while it hosts one: it leaves
// mates() with its first, and its guest's finish expands it back to its
// static split before it is listed again. The crosscheck checks every
// scanned mate against that split, which its closed-form budgets read
// instead of the nodes, and throws on a mate off it. Mates of mixed
// widths leave some guest widths out of Eq. 3's reach, so weight rejections
// fire as well, and the crosscheck re-proves each with the full mate search.
TEST(SdPolicyOneGuest, ListedMatesCrosscheckClean) {
  const testing_support::ScopedEnv crosscheck("SDSCHED_CROSSCHECK", "1");
  CirneConfig wl;
  wl.n_jobs = 300;
  wl.system_nodes = 32;
  wl.cores_per_node = 8;
  wl.max_job_nodes = 8;
  wl.target_load = 1.4;
  wl.seed = 1;
  MachineConfig machine;
  machine.nodes = 32;
  machine.node = NodeConfig{2, 8};
  Simulation sim(sd_config(machine, CutoffConfig::dynamic_avg()), generate_cirne(wl));
  SimulationReport report;
  ASSERT_NO_THROW(report = sim.run());
  EXPECT_EQ(report.records.size(), 300u);

  // A finishing guest keeps its own mates list, so two overlapping guests
  // that still name a common mate were stacked on it.
  int guests = 0;
  int stacked = 0;
  const JobRegistry& jobs = sim.jobs();
  for (const Job& later : jobs) {
    if (!later.started_as_guest) continue;
    ++guests;
    for (const Job& earlier : jobs) {
      if (&earlier == &later || !earlier.started_as_guest) continue;
      if (earlier.start_time > later.start_time || later.start_time >= earlier.end_time) {
        continue;
      }
      for (const JobId mate : later.mates) {
        stacked += static_cast<int>(std::count(earlier.mates.begin(), earlier.mates.end(), mate));
      }
    }
  }
  EXPECT_GT(guests, 0);
  EXPECT_EQ(stacked, 0) << "a mate took a second guest while hosting one";

  const auto& sd = dynamic_cast<const SdPolicyScheduler&>(sim.scheduler());
  EXPECT_GT(sd.selector_stats().weight_rejections, 0u) << "no weight rejection was re-proven";
  EXPECT_GT(sd.selector_stats().candidates_scanned, 0u);
}

}  // namespace
}  // namespace sdsched

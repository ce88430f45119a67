// google-benchmark micro benchmarks for the scheduler machinery: event
// queue throughput, reservation-profile queries, mate selection, the full
// SD pass on a saturated 5040-node machine, free-node picks at 50K nodes,
// and whole-simulation throughput per policy.
//
// Timings only, gating nothing. The work of the saturated-pass and
// free-pick scenes (tests/bench_scenes.h) is pinned by exact-counter tests
// on the same scenes, exact on any hardware:
//   SdSaturation.SaturatedPassCountersFollowTheBudget
//   FreePick.FiftyThousandNodesMatchMachineScanReadingFewWords
#include <benchmark/benchmark.h>

#include <vector>

#include "../tests/bench_scenes.h"
#include "api/simulation.h"
#include "cluster/cluster_state_index.h"
#include "core/mate_registry.h"
#include "core/mate_selector.h"
#include "drom/node_manager.h"
#include "sched/reservation.h"
#include "sim/event_queue.h"
#include "workload/cirne.h"

namespace {

using namespace sdsched;

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    EventQueue queue;
    for (int i = 0; i < n; ++i) {
      queue.schedule((i * 2654435761u) % 100000,
                     Event{EventKind::JobSubmit, static_cast<JobId>(i)});
    }
    while (!queue.empty()) benchmark::DoNotOptimize(queue.pop());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1000)->Arg(10000);

void BM_EventQueueCancellationChurn(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    EventQueue queue;
    std::vector<EventHandle> handles;
    handles.reserve(n);
    for (int i = 0; i < n; ++i) {
      handles.push_back(
          queue.schedule(i, Event{EventKind::JobFinish, static_cast<JobId>(i)}));
    }
    for (int i = 0; i < n; i += 2) queue.cancel(handles[i]);
    while (!queue.empty()) benchmark::DoNotOptimize(queue.pop());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueCancellationChurn)->Arg(10000);

void BM_ReservationEarliestStart(benchmark::State& state) {
  ReservationProfile profile(5040);
  for (int i = 0; i < 1000; ++i) {
    profile.reserve(i * 100, i * 100 + 5000, 1 + i % 32);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(profile.earliest_start(128, 3600, 50000));
  }
}
BENCHMARK(BM_ReservationEarliestStart);

// The profile a saturated RICC pass queries: a base of 220 release groups
// on 1024 nodes (982 busy), then 70 reservations placed where the profile
// reports each one's earliest start.
void BM_ReservationEarliestStartPassShape(benchmark::State& state) {
  constexpr SimTime kNow = 100000;
  std::vector<std::pair<SimTime, int>> groups;
  for (int i = 0; i < 220; ++i) groups.emplace_back(kNow + (i + 1) * 600, 1 + i % 8);
  ReservationProfile profile;
  profile.set_base(1024, kNow, groups);
  for (int r = 0; r < 70; ++r) {
    const int nodes = 1 + (r * 37) % 64;
    const SimTime duration = 3600 + (r * 7919) % 86400;
    const SimTime start = profile.earliest_start(nodes, duration, kNow);
    profile.reserve(start, start + duration, nodes);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(profile.earliest_start(128, 14400, kNow));
  }
  state.counters["breakpoints"] = static_cast<double>(profile.breakpoint_count());
}
BENCHMARK(BM_ReservationEarliestStartPassShape);

void BM_MateSelection(benchmark::State& state) {
  const int running = static_cast<int>(state.range(0));
  MachineConfig mc;
  mc.nodes = running * 2 + 2;
  mc.node = NodeConfig{2, 24};
  Machine machine(mc);
  JobRegistry jobs;
  ClusterStateIndex index(machine, jobs);
  DromRegistry drom;
  NodeManager mgr(machine, jobs, drom);
  for (int i = 0; i < running; ++i) {
    JobSpec spec;
    spec.req_cpus = 96;
    spec.req_nodes = 2;
    spec.req_time = 100000;
    spec.base_runtime = 100000;
    spec.submit = 0;
    const JobId id = jobs.add(spec);
    jobs.at(id).state = JobState::Running;
    jobs.at(id).predicted_end = 100000;
    mgr.start_static(0, id, *machine.find_free_nodes(2));
  }
  JobSpec guest_spec;
  guest_spec.req_cpus = 96;
  guest_spec.req_nodes = 2;
  guest_spec.req_time = 600;
  guest_spec.base_runtime = 600;
  const JobId guest = jobs.add(guest_spec);

  SdConfig sd;
  MateRegistry registry;
  registry.seed(jobs);
  MateSelector selector(machine, jobs, sd, registry);
  selector.set_cluster_index(&index);
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.select(jobs.at(guest), 1000, 1e18));
  }
  state.SetItemsProcessed(state.iterations() * running);
}
BENCHMARK(BM_MateSelection)->Arg(16)->Arg(128);

void BM_WholeSimulation(benchmark::State& state) {
  const auto policy = static_cast<PolicyKind>(state.range(0));
  CirneConfig wl;
  wl.n_jobs = 400;
  wl.system_nodes = 32;
  wl.cores_per_node = 48;
  wl.max_job_nodes = 8;
  wl.seed = 11;
  const Workload workload = generate_cirne(wl);
  SimulationConfig config;
  config.machine.nodes = 32;
  config.machine.node = NodeConfig{2, 24};
  config.policy = policy;
  for (auto _ : state) {
    Simulation sim(config, workload);
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * wl.n_jobs);
  state.SetLabel(to_string(policy));
}
BENCHMARK(BM_WholeSimulation)
    ->Arg(static_cast<int>(PolicyKind::Fcfs))
    ->Arg(static_cast<int>(PolicyKind::Backfill))
    ->Arg(static_cast<int>(PolicyKind::SdPolicy))
    ->Unit(benchmark::kMillisecond);

// The full SD pass on the saturated 5040-node scene at queue depth
// `range(0)`: after the first pass every considered guest is a ledger skip
// or a budget deferral, so the steady-state pass cost should not grow with
// the depth.
void BM_SdSaturatedPass(benchmark::State& state) {
  testing_support::SaturatedSdScene scene(static_cast<int>(state.range(0)));
  SimTime now = 1;
  for (auto _ : state) scene.scheduler->schedule_pass(now++);
  state.counters["skips/pass"] = benchmark::Counter(
      static_cast<double>(scene.scheduler->rescans_avoided()) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_SdSaturatedPass)->Arg(1000)->Arg(4000)->Unit(benchmark::kMicrosecond);

// One free-node pick per iteration through the ClusterStateIndex on the
// half-occupied free-pick scene, cycling through its 16 shapes.
void BM_FreeNodePick(benchmark::State& state) {
  const testing_support::FreePickScene scene(static_cast<int>(state.range(0)));
  std::size_t p = 0;
  for (auto _ : state) {
    const auto& shape = scene.shapes[p++ % scene.shapes.size()];
    benchmark::DoNotOptimize(scene.index.find_free_nodes(shape.count, shape.constraints));
  }
  state.counters["words/pick"] = benchmark::Counter(
      static_cast<double>(scene.index.free_words_read()) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_FreeNodePick)->Arg(50000);

}  // namespace

BENCHMARK_MAIN();

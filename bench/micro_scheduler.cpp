// google-benchmark micro benchmarks for the scheduler machinery: event
// queue throughput, reservation-profile queries, backfill pass cost, mate
// selection, and whole-simulation throughput per policy.
//
// A second mode, `--pass-metrics` (with optional `--json=<path>` and
// `--passes=<n>`), bypasses google-benchmark and runs the incremental-state
// study: per-scheduling-pass p50/p95 latency, profile breakpoint counts and
// skipped quiet passes across machine sizes, for steady and churning
// clusters.
//
// A third mode, `--sd-pass` (with optional `--json=<path>`, `--selects=<n>`,
// `--picks=<n>`, `--flips=<n>`, `--max-freepick-p95-ns=<n>`), runs the SD
// hot-path study: mate-selection p50/p95 latency plus candidates-scanned /
// combinations-evaluated counters across machine sizes — plus the free-pick
// study, a 256→1024→5040→50K node-count sweep reporting free-node pick
// p50/p95 and flip throughput for the bitmap FreeNodeIndex against the raw
// machine scan (picks are asserted byte-identical across the two
// tiers). `--max-freepick-p95-ns` is the
// CI regression guard: nonzero makes the run fail if the bitmap pick p95
// at the largest machine exceeds the budget. Both JSON documents land in
// the same `sdsched-bench-v1` family the figure benches emit; CI's
// bench-smoke job uploads them next to bench.json.
//
// A fourth mode, `--sd-saturation` (with optional `--json=<path>`,
// `--depths=<d1,d2,...>`, `--sd-sat-passes=<n>`, `--sd-guest-budget=<k>`,
// `--max-sd-saturation-ratio=<r>`), profiles the FULL SD scheduling pass
// (SdPolicyScheduler::schedule_pass, not one mate selection) on a full
// 5040-node Curie-shaped machine at saturated queue depths. Two tiers per
// depth: `budgeted` is the production saturated-queue config (default
// bf_max_jobs, guest budget K, failed-select ledger on) and `naive` is the
// conceptual unbounded scan (bf_max_jobs = depth, no budget, no ledger) —
// the cost the ledger and budget exist to avoid. `--max-sd-saturation-
// ratio` gates budgeted p95(largest depth) / p95(smallest depth) in CI:
// the budgeted pass must stay depth-flat (~1x; the gate allows 10x) while
// the naive tier scales ~linearly with depth.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <vector>

#include "api/simulation.h"
#include "cluster/cluster_state_index.h"
#include "cluster/free_node_index.h"
#include "core/mate_registry.h"
#include "detlint/ruleset.h"
#include "core/mate_selector.h"
#include "core/sd_policy.h"
#include "drom/node_manager.h"
#include "sched/backfill.h"
#include "sched/reservation.h"
#include "sim/event_queue.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/rss.h"
#include "util/stats.h"
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
  MateRegistry registry(sd.max_jobs_per_node);
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

/// Emit the shared sdsched-bench-v1 footprint tail (docs/bench-format.md):
/// the per-phase wall-clock breakdown and the peak-RSS probe. Placed last
/// in the document so `report` covers table rendering plus the document
/// serialization up to this stamp.
void write_phase_tail(JsonWriter& json, double generate_seconds, double simulate_seconds,
                      double report_seconds) {
  json.key("phase_seconds");
  json.begin_object();
  json.field("generate", generate_seconds);
  json.field("simulate", simulate_seconds);
  json.field("report", report_seconds);
  json.end_object();
  json.field("peak_rss_bytes", peak_rss_bytes());
}

// ---------------------------------------------------------------------------
// --pass-metrics: the O(dirty) demonstration.
// ---------------------------------------------------------------------------

/// Starts never fire in this study (the machine is kept full); fail loudly
/// if a pass decides otherwise.
class NoStartExecutor final : public StartExecutor {
 public:
  void start_static(JobId, const std::vector<int>&) override { std::abort(); }
  void start_guest(JobId, const MatePlan&) override { std::abort(); }
};

struct PassStats {
  std::string label;
  int nodes = 0;
  int passes = 0;
  double p50_ns = 0.0;
  double p95_ns = 0.0;
  std::size_t breakpoints = 0;
  std::uint64_t profile_reuses = 0;
  std::uint64_t profile_rebuilds = 0;
  std::uint64_t passes_skipped = 0;
};

/// A full cluster with few distinct release times (8 groups) plus a queue
/// that cannot start. Without `churn` every pass after the first repeats a
/// quiet pass and is skipped; `churn` replaces one node's occupant per pass
/// (the dirty case), so every pass re-derives its reservations.
PassStats run_pass_study(const char* label, int node_count, int passes, bool churn,
                         double& generate_seconds) {
  const auto setup_start = std::chrono::steady_clock::now();
  MachineConfig mc;
  mc.nodes = node_count;
  mc.node = NodeConfig{2, 24};
  Machine machine(mc);
  JobRegistry jobs;
  DromRegistry drom;
  NodeManager mgr(machine, jobs, drom);
  ClusterStateIndex index(machine, jobs);
  NoStartExecutor executor;
  BackfillScheduler scheduler(machine, jobs, executor, SchedConfig{});
  scheduler.set_cluster_index(&index);

  const auto add_running = [&](SimTime predicted_end) {
    JobSpec spec;
    spec.req_cpus = machine.cores_per_node();
    spec.req_nodes = 1;
    spec.req_time = 1000000;
    spec.base_runtime = 1000000;
    const JobId id = jobs.add(spec);
    jobs.at(id).state = JobState::Running;
    jobs.at(id).predicted_end = predicted_end;
    return id;
  };
  // Fill every node; occupants release in 8 waves far in the future.
  std::vector<JobId> occupant(static_cast<std::size_t>(node_count));
  for (int n = 0; n < node_count; ++n) {
    const JobId id = add_running(1000000 + (n % 8) * 1000);
    mgr.start_static(0, id, {n});
    occupant[static_cast<std::size_t>(n)] = id;
  }
  // Waiting jobs that cannot start before the waves release.
  for (int q = 0; q < 16; ++q) {
    JobSpec spec;
    spec.submit = 0;
    spec.req_cpus = (node_count / 2) * machine.cores_per_node();
    spec.req_nodes = node_count / 2;
    spec.req_time = 3600;
    spec.base_runtime = 3600;
    const JobId id = jobs.add(spec);
    scheduler.on_submit(id);
  }

  generate_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - setup_start).count();

  std::vector<double> latencies_ns;
  latencies_ns.reserve(static_cast<std::size_t>(passes));
  SimTime now = 1;
  int churn_cursor = 0;
  for (int p = 0; p < passes; ++p, ++now) {
    if (churn && p > 0) {
      // One node changes occupant between passes: the index hears two
      // notifications; everything else is untouched.
      const int node = churn_cursor++ % node_count;
      JobId& slot = occupant[static_cast<std::size_t>(node)];
      jobs.at(slot).state = JobState::Completed;
      mgr.finish_job(now, slot);
      slot = add_running(1000000 + (churn_cursor % 8) * 1000);
      mgr.start_static(now, slot, {node});
    }
    const auto t0 = std::chrono::steady_clock::now();
    scheduler.schedule_pass(now);
    const auto t1 = std::chrono::steady_clock::now();
    latencies_ns.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count());
  }

  PassStats stats;
  stats.label = label;
  stats.nodes = node_count;
  stats.passes = passes;
  stats.p50_ns = percentile_of(latencies_ns, 0.50);
  stats.p95_ns = percentile_of(latencies_ns, 0.95);
  stats.breakpoints = scheduler.profile_breakpoints();
  stats.profile_reuses = scheduler.profile_reuses();
  stats.profile_rebuilds = scheduler.profile_rebuilds();
  stats.passes_skipped = scheduler.passes_skipped();
  return stats;
}

int run_pass_metrics(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const int passes = static_cast<int>(args.get_int("passes", 2000));
  const std::string json_path = args.get_or("json", "");

  std::printf("scheduling-pass latency (full machine, 8 release waves, 16 waiting jobs)\n");
  std::printf("%-18s %8s %10s %10s %12s %8s/%-8s %8s\n", "case", "nodes", "p50(ns)",
              "p95(ns)", "breakpoints", "reuses", "rebuilds", "skipped");

  const auto start = std::chrono::steady_clock::now();
  double generate_seconds = 0.0;
  std::vector<PassStats> all;
  for (const int nodes : {256, 1024, 4096}) {
    all.push_back(run_pass_study("indexed_steady", nodes, passes, false, generate_seconds));
    all.push_back(run_pass_study("indexed_churn", nodes, passes, true, generate_seconds));
  }
  const auto study_end = std::chrono::steady_clock::now();
  const double wall = std::chrono::duration<double>(study_end - start).count();

  for (const auto& s : all) {
    std::printf("%-18s %8d %10.0f %10.0f %12zu %8llu/%-8llu %8llu\n", s.label.c_str(),
                s.nodes, s.p50_ns, s.p95_ns, s.breakpoints,
                static_cast<unsigned long long>(s.profile_reuses),
                static_cast<unsigned long long>(s.profile_rebuilds),
                static_cast<unsigned long long>(s.passes_skipped));
  }
  std::printf(
      "\nindexed_steady passes are now skipped (quiet repeats); indexed_churn measures\n"
      "the O(dirty) refresh and should stay flat as nodes grow.\n");

  if (!json_path.empty()) {
    JsonWriter json;
    json.begin_object();
    json.field("schema", "sdsched-bench-v1");
    json.field("bench", "micro_scheduler_pass");
    json.field("detlint_version", detlint::kVersion);
    json.field("detlint_ruleset_hash", detlint::ruleset_hash());
    json.key("context");
    json.begin_object();
    json.field("passes", passes);
    json.field("waiting_jobs", 16);
    json.field("release_waves", 8);
    json.end_object();
    json.field("wall_seconds", wall);
    json.key("pass_latency");
    json.begin_array();
    for (const auto& s : all) {
      json.begin_object();
      json.field("case", s.label);
      json.field("nodes", s.nodes);
      json.field("passes", s.passes);
      json.field("p50_ns", s.p50_ns);
      json.field("p95_ns", s.p95_ns);
      json.field("breakpoints", static_cast<std::uint64_t>(s.breakpoints));
      json.field("profile_reuses", s.profile_reuses);
      json.field("profile_rebuilds", s.profile_rebuilds);
      json.field("passes_skipped", s.passes_skipped);
      json.end_object();
    }
    json.end_array();
    write_phase_tail(json, generate_seconds, wall - generate_seconds,
                     std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                   study_end)
                         .count());
    json.end_object();
    write_text_file(json_path, json.str());
    std::printf("(json written to %s)\n", json_path.c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// --sd-pass: the mate-selection hot-path study.
// ---------------------------------------------------------------------------

struct SdPassStats {
  std::string label;
  int nodes = 0;
  int selects = 0;
  double p50_ns = 0.0;
  double p95_ns = 0.0;
  double candidates_scanned_per_select = 0.0;
  double budget_refills_per_select = 0.0;
  std::uint64_t combinations_evaluated = 0;
  std::uint64_t plans_found = 0;
};

/// One machine-size cell of the study: a half-full machine of running
/// 2-node malleable mates (release waves far in the future) plus a
/// trace-scale population of inert (pending) jobs the MateRegistry keeps
/// out of the candidate scan. Guests of 2/4 nodes cycle through select().
SdPassStats run_sd_pass_study(const char* label, int node_count, int selects,
                              int inert_jobs, double& generate_seconds) {
  const auto setup_start = std::chrono::steady_clock::now();
  MachineConfig mc;
  mc.nodes = node_count;
  mc.node = NodeConfig{2, 8};  // Curie-shaped: 16 cores per node
  Machine machine(mc);
  JobRegistry jobs;
  DromRegistry drom;
  NodeManager mgr(machine, jobs, drom);
  ClusterStateIndex index(machine, jobs);

  const int cores = machine.cores_per_node();
  const auto add_job = [&](int req_nodes, SimTime req_time) {
    JobSpec spec;
    spec.req_cpus = req_nodes * cores;
    spec.req_nodes = req_nodes;
    spec.req_time = req_time;
    spec.base_runtime = req_time;
    return jobs.add(spec);
  };

  // Mates: 2-node running jobs on half the machine, 16 release waves.
  const int running = node_count / 4;
  for (int i = 0; i < running; ++i) {
    const JobId id = add_job(2, 1000000);
    jobs.at(id).state = JobState::Running;
    jobs.at(id).predicted_end = 1000000 + (i % 16) * 1000;
    mgr.start_static(0, id, {2 * i, 2 * i + 1});
  }
  // Inert population: pending jobs the registry never lists as mates.
  for (int i = 0; i < inert_jobs; ++i) add_job(1 + i % 4, 3600);
  // Guests: pending, short, cycling sizes (all satisfiable by 2-node mates).
  std::vector<JobId> guests;
  for (const int size : {2, 4, 2, 2, 4, 2}) guests.push_back(add_job(size, 600));

  SdConfig sd;
  MateRegistry registry(sd.max_jobs_per_node);
  registry.seed(jobs);
  MateSelector selector(machine, jobs, sd, registry);
  selector.set_cluster_index(&index);

  generate_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - setup_start).count();

  std::vector<double> latencies_ns;
  latencies_ns.reserve(static_cast<std::size_t>(selects));
  const MateSelector::SelectStats before = selector.stats();
  for (int s = 0; s < selects; ++s) {
    const Job& guest = jobs.at(guests[static_cast<std::size_t>(s) % guests.size()]);
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(selector.select(guest, 1000, 1e18));
    const auto t1 = std::chrono::steady_clock::now();
    latencies_ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  const MateSelector::SelectStats after = selector.stats();

  SdPassStats stats;
  stats.label = label;
  stats.nodes = node_count;
  stats.selects = selects;
  stats.p50_ns = percentile_of(latencies_ns, 0.50);
  stats.p95_ns = percentile_of(latencies_ns, 0.95);
  stats.candidates_scanned_per_select =
      static_cast<double>(after.candidates_scanned - before.candidates_scanned) /
      static_cast<double>(selects);
  stats.budget_refills_per_select =
      static_cast<double>(after.budget_refills - before.budget_refills) /
      static_cast<double>(selects);
  stats.combinations_evaluated =
      after.combinations_evaluated - before.combinations_evaluated;
  stats.plans_found = after.plans_found - before.plans_found;
  return stats;
}

// ---------------------------------------------------------------------------
// --sd-pass free-pick study: bitmap words vs run index vs machine scan.
// ---------------------------------------------------------------------------

struct FreePickStats {
  std::string label;
  int nodes = 0;
  int picks = 0;
  double p50_ns = 0.0;
  double p95_ns = 0.0;
  double flips_per_sec = 0.0;  ///< 0 = flip cost not measured for this tier
};

/// One machine-size cell, shaped like what SLURM select/linear leaves
/// behind: the machine fills with 8-node contiguous jobs lowest-first, a
/// deterministic pseudo-random half of them completes, and the low ids are
/// a dedicated fixed-size highmem region (fat-node partitions are
/// contiguous racks of roughly constant size in real clusters — Curie's
/// fat island — and a striped class would make class-restricted contiguous
/// requests unsatisfiable by construction).
/// The resulting free set has the fixed-density block fragmentation real
/// machines show at ~50% load, so the distance to the first adequate span
/// depends on the density, not the machine size — the property the 50K
/// flatness gate (`--max-freepick-p95-ns`) pins down.
///
/// The same cycling sequence of pick shapes — count x contiguous x
/// constrained — is then timed against two tiers: the bitmap FreeNodeIndex
/// (through the ClusterStateIndex seam schedulers use) and the raw machine
/// scan. Every pick is compared across the tiers; a divergence aborts the
/// bench. Flip throughput (erase+insert pairs) is measured for the index
/// tier; the machine's flips ride inside the allocation path and are not
/// separable, so its entry reports 0.
std::vector<FreePickStats> run_free_pick_study(int node_count, int picks, int flips,
                                               double& generate_seconds) {
  const auto setup_start = std::chrono::steady_clock::now();
  constexpr int kBlock = 8;  ///< allocation granularity (8-node jobs)
  MachineConfig mc;
  mc.nodes = node_count;
  mc.node = NodeConfig{2, 8};
  NodeAttributes highmem;
  highmem.memory_gb = 384;
  const int highmem_region = std::min(node_count / 4, 512);
  for (int id = 0; id < highmem_region; ++id) mc.attribute_overrides.emplace_back(id, highmem);
  Machine machine(mc);
  JobRegistry jobs;
  DromRegistry drom;
  NodeManager mgr(machine, jobs, drom);
  ClusterStateIndex index(machine, jobs);

  // The partition the index derives (first-seen order: node 0 is highmem,
  // so class 0 = highmem, class 1 = default).
  std::vector<int> node_class(static_cast<std::size_t>(node_count), 1);
  for (int id = 0; id < highmem_region; ++id) node_class[static_cast<std::size_t>(id)] = 0;

  // Fill every 8-node block lowest-first, then complete a deterministic
  // pseudo-random half — the churn a steady-state machine has seen.
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto rnd = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  const int cores = machine.cores_per_node();
  std::vector<JobId> block_jobs;
  for (int first = 0; first + kBlock <= node_count; first += kBlock) {
    JobSpec spec;
    spec.req_cpus = kBlock * cores;
    spec.req_nodes = kBlock;
    spec.req_time = 1000000;
    spec.base_runtime = 1000000;
    const JobId job = jobs.add(spec);
    jobs.at(job).state = JobState::Running;
    jobs.at(job).predicted_end = 1000000;
    std::vector<int> ids(kBlock);
    for (int i = 0; i < kBlock; ++i) ids[static_cast<std::size_t>(i)] = first + i;
    mgr.start_static(0, job, ids);
    block_jobs.push_back(job);
  }
  for (const JobId job : block_jobs) {
    if ((rnd() & 1) == 0) continue;
    jobs.at(job).state = JobState::Completed;
    mgr.finish_job(1, job);
  }

  // Mirror the final occupancy into the standalone flip-timing copy (it
  // starts with every node free).
  FreeNodeIndex bitmap_flipper(node_class, 2);
  for (int id = 0; id < node_count; ++id) {
    if (machine.node(id).empty()) continue;
    bitmap_flipper.erase(id);
  }

  // The pick shapes, cycled in order: unconstrained / contiguous /
  // highmem-only / highmem-contiguous at 1..64 nodes. Every shape is
  // satisfiable on this occupancy at realistic scales; where the machine is
  // too small for one (a 64-node highmem run on the 256-node cell), the
  // exhaustive failed scan is a latency case too, and nullopt must agree
  // across the tiers like any other answer.
  JobConstraints contig;
  contig.contiguous = true;
  JobConstraints high;
  high.min_memory_gb = 256;
  JobConstraints high_contig = high;
  high_contig.contiguous = true;
  struct Shape {
    const JobConstraints* constraints;  ///< nullptr = unconstrained
    int count;
  };
  std::vector<Shape> shapes;
  for (const int count : {1, 4, 16, 64}) {
    shapes.push_back(Shape{nullptr, count});
    shapes.push_back(Shape{&contig, count});
    shapes.push_back(Shape{&high, count});
    shapes.push_back(Shape{&high_contig, count});
  }
  generate_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - setup_start).count();

  // Each tier runs the full pick sequence in its own batch: a steady-state
  // scheduler touches only its own structure between picks, so interleaving
  // the tiers would charge the bitmap for the cache the machine scan
  // evicts. Answers are compared across tiers afterwards.
  using Picked = std::optional<std::vector<int>>;
  std::vector<Picked> answers[2];
  std::vector<double> latencies[2];
  const auto run_tier = [&](int tier, const auto& pick_fn) {
    answers[tier].reserve(static_cast<std::size_t>(picks));
    latencies[tier].reserve(static_cast<std::size_t>(picks));
    for (int p = 0; p < picks; ++p) {
      const Shape& shape = shapes[static_cast<std::size_t>(p) % shapes.size()];
      const auto t0 = std::chrono::steady_clock::now();
      Picked got = pick_fn(shape);
      const auto t1 = std::chrono::steady_clock::now();
      latencies[tier].push_back(std::chrono::duration<double, std::nano>(t1 - t0).count());
      answers[tier].push_back(std::move(got));
    }
  };
  run_tier(0, [&](const Shape& shape) {
    return index.find_free_nodes(shape.count, shape.constraints);
  });
  run_tier(1, [&](const Shape& shape) {
    return machine.find_free_nodes(shape.count, shape.constraints);
  });
  if (answers[0] != answers[1]) {
    std::fprintf(stderr,
                 "ERROR: free-pick tiers diverged at %d nodes (bitmap vs machine scan)\n",
                 node_count);
    std::exit(1);
  }

  // Flip throughput: erase+insert pairs across every free id, repeated
  // until `flips` single flips have run — net state change zero, so the
  // timed structure stays parity-comparable afterwards.
  const auto time_flips = [&](auto& target) {
    std::vector<int> free_ids;
    for (int id = 0; id < node_count; ++id) {
      if (machine.node(id).empty()) free_ids.push_back(id);
    }
    int done = 0;
    const auto t0 = std::chrono::steady_clock::now();
    while (done < flips) {
      for (const int id : free_ids) {
        target.erase(id);
        target.insert(id);
        done += 2;
        if (done >= flips) break;
      }
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return seconds > 0.0 ? static_cast<double>(done) / seconds : 0.0;
  };
  const double bitmap_flips = time_flips(bitmap_flipper);

  std::vector<FreePickStats> stats(2);
  const char* labels[2] = {"bitmap", "machine_scan"};
  const double tier_flips[2] = {bitmap_flips, 0.0};
  for (int tier = 0; tier < 2; ++tier) {
    stats[static_cast<std::size_t>(tier)].label = labels[tier];
    stats[static_cast<std::size_t>(tier)].nodes = node_count;
    stats[static_cast<std::size_t>(tier)].picks = picks;
    stats[static_cast<std::size_t>(tier)].p50_ns = percentile_of(latencies[tier], 0.50);
    stats[static_cast<std::size_t>(tier)].p95_ns = percentile_of(latencies[tier], 0.95);
    stats[static_cast<std::size_t>(tier)].flips_per_sec = tier_flips[tier];
  }
  return stats;
}

int run_sd_pass(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const int selects = static_cast<int>(args.get_int("selects", 400));
  const int inert_jobs = static_cast<int>(args.get_int("inert-jobs", 4000));
  const int picks = static_cast<int>(args.get_int("picks", 400));
  const int flips = static_cast<int>(args.get_int("flips", 200000));
  const double freepick_budget_ns =
      static_cast<double>(args.get_int("max-freepick-p95-ns", 0));
  const std::string json_path = args.get_or("json", "");

  std::printf("mate-selection latency (half-full machine of 2-node mates, %d inert jobs)\n",
              inert_jobs);
  std::printf("%-10s %8s %10s %10s %14s %14s %10s %8s\n", "case", "nodes", "p50(ns)",
              "p95(ns)", "scanned/sel", "refills/sel", "combos", "plans");

  const auto start = std::chrono::steady_clock::now();
  double generate_seconds = 0.0;
  std::vector<SdPassStats> all;
  for (const int nodes : {256, 1024, 5040}) {
    all.push_back(run_sd_pass_study("registry", nodes, selects, inert_jobs, generate_seconds));
  }

  // The free-pick sweep: one decade past the mate study, up to a 10x-Curie
  // machine. 50000 is deliberately not a multiple of 64, so the dead-bit
  // tail of the last bitmap word is exercised at scale on every CI run.
  std::vector<FreePickStats> free_pick;
  for (const int nodes : {256, 1024, 5040, 50000}) {
    const auto cell = run_free_pick_study(nodes, picks, flips, generate_seconds);
    free_pick.insert(free_pick.end(), cell.begin(), cell.end());
  }
  const auto study_end = std::chrono::steady_clock::now();
  const double wall = std::chrono::duration<double>(study_end - start).count();

  for (const auto& s : all) {
    std::printf("%-10s %8d %10.0f %10.0f %14.1f %14.2f %10llu %8llu\n", s.label.c_str(),
                s.nodes, s.p50_ns, s.p95_ns, s.candidates_scanned_per_select,
                s.budget_refills_per_select,
                static_cast<unsigned long long>(s.combinations_evaluated),
                static_cast<unsigned long long>(s.plans_found));
  }
  std::printf("\nregistry scans only mates() (running malleable non-guests that are not full).\n"
              "refills/sel counts node-budget fills; the machine does not change between\n"
              "selects, so each mate is filled once and every later select hits the cache.\n");

  std::printf("\nfree-node pick latency + flip throughput (half-occupied machine)\n");
  std::printf("%-14s %8s %10s %10s %14s\n", "case", "nodes", "p50(ns)", "p95(ns)",
              "flips/sec");
  for (const auto& s : free_pick) {
    std::printf("%-14s %8d %10.0f %10.0f %14.0f\n", s.label.c_str(), s.nodes, s.p50_ns,
                s.p95_ns, s.flips_per_sec);
  }
  std::printf("\nbitmap is the O(1)-flip word index schedulers use; machine_scan is the\n"
              "oracle's id-ordered node-table scan (it keeps no free record, so it\n"
              "has no flips to measure). Picks are byte-identical across the two tiers.\n");

  // CI regression guard: the bitmap pick p95 at the largest machine must
  // stay inside the budget (generous — the point is catching a complexity
  // regression, not timer noise).
  if (freepick_budget_ns > 0.0) {
    const FreePickStats* largest_bitmap = nullptr;
    for (const auto& s : free_pick) {
      if (s.label == "bitmap" &&
          (largest_bitmap == nullptr || s.nodes > largest_bitmap->nodes)) {
        largest_bitmap = &s;
      }
    }
    if (largest_bitmap != nullptr && largest_bitmap->p95_ns > freepick_budget_ns) {
      std::fprintf(stderr,
                   "ERROR: bitmap free-pick p95 at %d nodes is %.0f ns, over the %.0f ns "
                   "budget\n",
                   largest_bitmap->nodes, largest_bitmap->p95_ns, freepick_budget_ns);
      return 1;
    }
    if (largest_bitmap != nullptr) {
      std::printf("\nfree-pick budget: bitmap p95 at %d nodes = %.0f ns <= %.0f ns budget\n",
                  largest_bitmap->nodes, largest_bitmap->p95_ns, freepick_budget_ns);
    }
  }

  if (!json_path.empty()) {
    JsonWriter json;
    json.begin_object();
    json.field("schema", "sdsched-bench-v1");
    json.field("bench", "micro_scheduler_sd_pass");
    json.field("detlint_version", detlint::kVersion);
    json.field("detlint_ruleset_hash", detlint::ruleset_hash());
    json.key("context");
    json.begin_object();
    json.field("selects", selects);
    json.field("inert_jobs", inert_jobs);
    json.field("picks", picks);
    json.field("flips", flips);
    json.field("max_freepick_p95_ns", freepick_budget_ns);
    json.end_object();
    json.field("wall_seconds", wall);
    json.key("sd_pass");
    json.begin_array();
    for (const auto& s : all) {
      json.begin_object();
      json.field("case", s.label);
      json.field("nodes", s.nodes);
      json.field("selects", s.selects);
      json.field("p50_ns", s.p50_ns);
      json.field("p95_ns", s.p95_ns);
      json.field("candidates_scanned_per_select", s.candidates_scanned_per_select);
      json.field("budget_refills_per_select", s.budget_refills_per_select);
      json.field("combinations_evaluated", s.combinations_evaluated);
      json.field("plans_found", s.plans_found);
      json.end_object();
    }
    json.end_array();
    json.key("free_pick");
    json.begin_array();
    for (const auto& s : free_pick) {
      json.begin_object();
      json.field("case", s.label);
      json.field("nodes", s.nodes);
      json.field("picks", s.picks);
      json.field("p50_ns", s.p50_ns);
      json.field("p95_ns", s.p95_ns);
      json.field("flips_per_sec", s.flips_per_sec);
      json.end_object();
    }
    json.end_array();
    write_phase_tail(json, generate_seconds, wall - generate_seconds,
                     std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                   study_end)
                         .count());
    json.end_object();
    write_text_file(json_path, json.str());
    std::printf("(json written to %s)\n", json_path.c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// --sd-saturation: the full SD pass under archive-scale queue depths.
// ---------------------------------------------------------------------------

struct SdSaturationStats {
  std::string label;
  int depth = 0;
  int passes = 0;
  double p50_ns = 0.0;
  double p95_ns = 0.0;
  std::uint64_t estimate_rejections = 0;
  std::uint64_t selection_failures = 0;
  std::uint64_t rescans_avoided = 0;
  std::uint64_t budget_deferrals = 0;
};

/// One (tier, depth) cell: a FULL 5040-node machine of 2-node running
/// mates (16 release waves far in the future) and `depth` pending 3-node
/// malleable guests. Nothing can start statically, and Eq. 3's equality
/// (sum of 2-node mates == 3 nodes, at most 2 mates) has no solution, so
/// every considered guest runs a mate search that fails — the saturated
/// steady state the soak's wait queue lives in. `bounded` toggles the
/// production config (default bf_max_jobs, guest budget, ledger) against
/// the conceptual unbounded scan (bf_max_jobs = depth, no budget, no
/// ledger). NoStartExecutor aborts the bench if a pass ever disagrees
/// about nothing being startable.
SdSaturationStats run_sd_saturation_cell(const char* label, int node_count, int depth,
                                         int passes, bool bounded, int guest_budget,
                                         double& generate_seconds) {
  const auto setup_start = std::chrono::steady_clock::now();
  MachineConfig mc;
  mc.nodes = node_count;
  mc.node = NodeConfig{2, 8};  // Curie-shaped: 16 cores per node
  Machine machine(mc);
  JobRegistry jobs;
  DromRegistry drom;
  NodeManager mgr(machine, jobs, drom);
  ClusterStateIndex index(machine, jobs);

  const int cores = machine.cores_per_node();
  const auto add_job = [&](int req_nodes, SimTime req_time) {
    JobSpec spec;
    spec.req_cpus = req_nodes * cores;
    spec.req_nodes = req_nodes;
    spec.req_time = req_time;
    spec.base_runtime = req_time;
    return jobs.add(spec);
  };

  // Fill the whole machine with 2-node mates, 16 release waves.
  for (int i = 0; i < node_count / 2; ++i) {
    const JobId id = add_job(2, 1000000);
    jobs.at(id).state = JobState::Running;
    jobs.at(id).predicted_end = 1000000 + (i % 16) * 1000;
    mgr.start_static(0, id, {2 * i, 2 * i + 1});
  }

  SchedConfig sched;
  if (!bounded) sched.bf_max_jobs = depth;  // the unbounded whole-queue walk
  SdConfig sd;  // DynAVGSD cut-off, the production default
  sd.scan.ledger = bounded;
  sd.scan.guest_budget = bounded ? guest_budget : 0;
  NoStartExecutor executor;
  SdPolicyScheduler scheduler(machine, jobs, executor, sched, sd);
  scheduler.set_cluster_index(&index);

  // The saturated queue: `depth` pending 3-node guests.
  for (int q = 0; q < depth; ++q) scheduler.on_submit(add_job(3, 600));

  generate_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - setup_start).count();

  std::vector<double> latencies_ns;
  latencies_ns.reserve(static_cast<std::size_t>(passes));
  for (int p = 0; p < passes; ++p) {
    const SimTime now = 1 + p;
    const auto t0 = std::chrono::steady_clock::now();
    scheduler.schedule_pass(now);
    const auto t1 = std::chrono::steady_clock::now();
    latencies_ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count());
  }

  SdSaturationStats stats;
  stats.label = label;
  stats.depth = depth;
  stats.passes = passes;
  stats.p50_ns = percentile_of(latencies_ns, 0.50);
  stats.p95_ns = percentile_of(latencies_ns, 0.95);
  stats.estimate_rejections = scheduler.estimate_rejections();
  stats.selection_failures = scheduler.selection_failures();
  stats.rescans_avoided = scheduler.rescans_avoided();
  stats.budget_deferrals = scheduler.budget_deferrals();
  return stats;
}

int run_sd_saturation(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const int nodes = static_cast<int>(args.get_int("sat-nodes", 5040));
  const int passes = static_cast<int>(args.get_int("sd-sat-passes", 4));
  const int guest_budget = static_cast<int>(args.get_int("sd-guest-budget", 64));
  const double max_ratio = args.get_double("max-sd-saturation-ratio", 0.0);
  const std::string json_path = args.get_or("json", "");

  // Comma-separated queue depths, ascending.
  std::vector<int> depths;
  {
    const std::string spec = args.get_or("depths", "1000,10000,100000");
    std::size_t pos = 0;
    while (pos < spec.size()) {
      const std::size_t comma = spec.find(',', pos);
      const std::string tok = spec.substr(pos, comma == std::string::npos ? spec.npos
                                                                          : comma - pos);
      if (!tok.empty()) depths.push_back(std::atoi(tok.c_str()));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    if (depths.empty()) depths = {1000, 10000, 100000};
  }

  std::printf("full SD pass latency under saturation (%d nodes full of 2-node mates,\n"
              "queue of 3-node guests with no feasible mate combination)\n",
              nodes);
  std::printf("%-17s %9s %12s %12s %10s %10s %10s %10s\n", "case", "depth", "p50(ns)",
              "p95(ns)", "est_rej", "sel_fail", "skipped", "deferred");

  const auto start = std::chrono::steady_clock::now();
  double generate_seconds = 0.0;
  std::vector<SdSaturationStats> all;
  for (const int depth : depths) {
    all.push_back(run_sd_saturation_cell("budgeted", nodes, depth, passes, true,
                                         guest_budget, generate_seconds));
    all.push_back(run_sd_saturation_cell("naive", nodes, depth, passes, false, 0,
                                         generate_seconds));
  }
  const auto study_end = std::chrono::steady_clock::now();
  const double wall = std::chrono::duration<double>(study_end - start).count();

  for (const auto& s : all) {
    std::printf("%-17s %9d %12.0f %12.0f %10llu %10llu %10llu %10llu\n", s.label.c_str(),
                s.depth, s.p50_ns, s.p95_ns,
                static_cast<unsigned long long>(s.estimate_rejections),
                static_cast<unsigned long long>(s.selection_failures),
                static_cast<unsigned long long>(s.rescans_avoided),
                static_cast<unsigned long long>(s.budget_deferrals));
  }
  std::printf("\nbudgeted = production saturated-queue config (guest budget %d + failed-\n"
              "select ledger): pass cost is depth-flat. naive = unbounded whole-queue\n"
              "scan (bf_max_jobs = depth, no ledger): cost scales with depth.\n",
              guest_budget);

  // Sanity: the ledger must actually be skipping on the budgeted tier (the
  // steady state re-considers the same failed guests every pass).
  for (const auto& s : all) {
    if (s.label == "budgeted" && s.rescans_avoided == 0) {
      std::fprintf(stderr,
                   "ERROR: budgeted cell at depth %d avoided zero re-scans — the "
                   "failed-select ledger is not engaging\n",
                   s.depth);
      return 1;
    }
  }

  // CI regression guard: the budgeted pass p95 at the deepest queue must
  // stay within the ratio budget of the shallowest (a complexity gate, not
  // a timing assertion — the naive tier's same ratio is ~depth-linear).
  const auto budgeted_p95_at = [&all](int depth) {
    for (const auto& s : all) {
      if (s.label == "budgeted" && s.depth == depth) return s.p95_ns;
    }
    return 0.0;
  };
  const double shallow = budgeted_p95_at(depths.front());
  const double deep = budgeted_p95_at(depths.back());
  const double ratio = shallow > 0.0 ? deep / shallow : 0.0;
  std::printf("\nbudgeted p95 ratio %d -> %d: %.2fx\n", depths.front(), depths.back(),
              ratio);
  if (max_ratio > 0.0 && ratio > max_ratio) {
    std::fprintf(stderr,
                 "ERROR: budgeted SD pass p95 grew %.2fx from depth %d to %d, over the "
                 "%.1fx budget\n",
                 ratio, depths.front(), depths.back(), max_ratio);
    return 1;
  }

  if (!json_path.empty()) {
    JsonWriter json;
    json.begin_object();
    json.field("schema", "sdsched-bench-v1");
    json.field("bench", "micro_scheduler_sd_saturation");
    json.field("detlint_version", detlint::kVersion);
    json.field("detlint_ruleset_hash", detlint::ruleset_hash());
    json.key("context");
    json.begin_object();
    json.field("nodes", nodes);
    json.field("passes", passes);
    json.field("sd_guest_budget", guest_budget);
    json.field("max_sd_saturation_ratio", max_ratio);
    json.end_object();
    json.field("wall_seconds", wall);
    json.key("sd_saturation");
    json.begin_array();
    for (const auto& s : all) {
      json.begin_object();
      json.field("case", s.label);
      json.field("depth", s.depth);
      json.field("passes", s.passes);
      json.field("p50_ns", s.p50_ns);
      json.field("p95_ns", s.p95_ns);
      json.field("sd_estimate_rejections", s.estimate_rejections);
      json.field("sd_selection_failures", s.selection_failures);
      json.field("sd_rescans_avoided", s.rescans_avoided);
      json.field("sd_budget_deferrals", s.budget_deferrals);
      json.end_object();
    }
    json.end_array();
    json.field("budgeted_p95_ratio", ratio);
    write_phase_tail(json, generate_seconds, wall - generate_seconds,
                     std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                   study_end)
                         .count());
    json.end_object();
    write_text_file(json_path, json.str());
    std::printf("(json written to %s)\n", json_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.get_bool("pass-metrics")) {
    return run_pass_metrics(argc, argv);
  }
  if (args.get_bool("sd-pass")) {
    return run_sd_pass(argc, argv);
  }
  if (args.get_bool("sd-saturation")) {
    return run_sd_saturation(argc, argv);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

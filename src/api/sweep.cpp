#include "api/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "util/logging.h"

namespace sdsched {

namespace {

SweepResult run_cell(const SweepCell& cell) {
  const auto start = std::chrono::steady_clock::now();
  SweepResult result;
  result.name = cell.name;
  result.report = Simulation(cell.config, cell.workload).run();
  result.wall_seconds = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - start).count();
  return result;
}

}  // namespace

std::size_t SweepRunner::effective_jobs(std::size_t cells) const noexcept {
  // hardware_concurrency() may return 0 when unknown; floor it at 1.
  const std::size_t requested =
      jobs_ == 0 ? std::max(1U, std::thread::hardware_concurrency())
                 : static_cast<std::size_t>(jobs_);
  return cells < requested ? (cells == 0 ? 1 : cells) : requested;
}

std::vector<SweepResult> SweepRunner::run(const std::vector<SweepCell>& cells) const {
  // Determinism audit (detlint D1): insert-only duplicate detector — never
  // iterated, and cell order (the visible order of results) comes from the
  // caller's vector, so hash order cannot leak into output.
  std::unordered_set<std::string> names;
  for (const auto& cell : cells) {
    if (cell.name.empty()) {
      throw std::invalid_argument("SweepRunner: cell with empty name");
    }
    if (!names.insert(cell.name).second) {
      throw std::invalid_argument("SweepRunner: duplicate cell name '" + cell.name + "'");
    }
  }

  std::vector<SweepResult> results(cells.size());
  std::vector<std::exception_ptr> errors(cells.size());
  const std::size_t workers = effective_jobs(cells.size());
  log_debug("sweep", cells.size(), " cells on ", workers, " worker(s)");

  // Every worker, the calling thread included, claims the next unrun cell
  // until none is left; each cell writes only its own result and error
  // slot. jobs == 1 is the same loop with no extra thread.
  std::atomic<std::size_t> next{0};
  const auto work = [&cells, &results, &errors, &next] {
    for (std::size_t i = next++; i < cells.size(); i = next++) {
      try {
        results[i] = run_cell(cells[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  {
    // jthread joins on destruction, so every cell has ended before any
    // failure unwinds past cells/results.
    std::vector<std::jthread> threads;
    threads.reserve(workers - 1);
    for (std::size_t t = 1; t < workers; ++t) threads.emplace_back(work);
    work();
  }
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return results;
}

std::uint64_t SweepRunner::cell_seed(std::uint64_t base, std::size_t index) noexcept {
  // SplitMix64 finalizer over the (base, index) pair.
  std::uint64_t x = base + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(index) + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x == 0 ? 0x9e3779b97f4a7c15ULL : x;
}

}  // namespace sdsched

// DROM (Dynamic Resource Ownership Management) — the simulator's analogue of
// the DROM API the paper integrates into slurmd/slurmstepd (§2.1, §3.3).
//
// Real DROM tracks attached processes and their CPU masks and lets the node
// manager change them at malleability points. Here a mask is modelled as a
// per-socket core count. A mask is a pure function of the node's occupant
// list, so none is stored: NodeManager::mask derives it on demand with
// distribute_cpu (Listing 3). The registry keeps only the shrink/expand
// transition counters, for the report and tests.
#pragma once

#include <cstdint>
#include <vector>

namespace sdsched {

/// A CPU mask abstracted as cores held per socket.
struct CpuMask {
  std::vector<int> cores_per_socket;

  [[nodiscard]] int total() const noexcept {
    int sum = 0;
    for (const int c : cores_per_socket) sum += c;
    return sum;
  }
};

class DromRegistry {
 public:
  /// A process's mask went from `before` to `after` cores: a narrower mask
  /// is a shrink, a wider one an expand, an equal width (migration) neither.
  void record_resize(int before, int after) noexcept {
    if (after < before) ++shrink_ops_;
    if (after > before) ++expand_ops_;
  }

  [[nodiscard]] std::uint64_t shrink_ops() const noexcept { return shrink_ops_; }
  [[nodiscard]] std::uint64_t expand_ops() const noexcept { return expand_ops_; }

 private:
  std::uint64_t shrink_ops_ = 0;
  std::uint64_t expand_ops_ = 0;
};

}  // namespace sdsched

// Queue-depth-sublinear SD passes: the per-pass guest budget and the
// failed-select ledger (ROADMAP "SD at archive scale").
//
// Under a saturated workload (offered load > 1, e.g. RICC's 1.35) the wait
// queue grows without bound and the SD pass — which attempts a mate search
// for every queued malleability-capable guest — scales with queue depth.
// Two independent bounds restore sublinearity:
//
//  * GuestScanPolicy::guest_budget — a top-K head-of-queue slice: at most
//    K guests are *considered* per pass, in the active WaitQueue priority
//    order. A slot is consumed whether the consideration ends in a quick-
//    estimate rejection, a ledger skip or a real mate search, so the slice
//    is a pure prefix of the priority order and the ledger below never
//    changes which guests reach it. K = 0 (the default) is unbounded and
//    byte-identical to the historical pass.
//
//  * GuestScanLedger — always on, no switch: skip the mate search for a
//    guest whose previous search failed in a provably unchanged state
//    (same mutation_serial and planned duration, no more free nodes, and
//    `now` before Entry::valid_until, where a truncated scan's failure
//    lapses at the earliest kept predicted end, MateSelector::last_scan()).
//    docs/determinism.md "Scan-ledger skip safety" has the proof; under the
//    SDSCHED_CROSSCHECK switch (ClusterStateIndex::crosscheck()) SD-Policy
//    re-runs the full search on every claimed skip and throws on divergence.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event.h"
#include "util/time_utils.h"

namespace sdsched {

/// SD guest-consideration policy knobs (SdConfig::scan).
struct GuestScanPolicy {
  /// Top-K head-of-queue slice: malleability-capable guests considered per
  /// pass. 0 = unbounded.
  int guest_budget = 0;
};

/// Per-guest record of the state in which the last mate search failed.
/// Indexed by JobId, grown on demand. The key is
/// (mutation_serial, planned, max_free) plus valid_until; an entry goes
/// stale by itself when the serial moves on. Every start and finish writes
/// a node, so an unchanged serial also means an unchanged running
/// population, and a guest that started never asks again.
class GuestScanLedger {
 public:
  struct Entry {
    std::uint64_t serial = 0;  ///< ClusterStateIndex::mutation_serial at failure
    SimTime planned = 0;       ///< planning duration the failed search used
    SimTime valid_until = 0;   ///< first instant the failure proof lapses
    int max_free = 0;          ///< free-node allowance the failed search saw
    bool valid = false;
  };

  void record(JobId guest, const Entry& entry) {
    const auto idx = static_cast<std::size_t>(guest);
    if (idx >= entries_.size()) entries_.resize(idx + 1);
    entries_[idx] = entry;
    entries_[idx].valid = true;
  }

  /// True when `guest`'s recorded failure provably still stands: identical
  /// serial/planned, a free-node allowance no larger than the failed search
  /// saw, and `now` still inside the truncation-proof window.
  [[nodiscard]] bool can_skip(JobId guest, std::uint64_t serial, SimTime planned,
                              int max_free, SimTime now) const noexcept {
    const auto idx = static_cast<std::size_t>(guest);
    if (idx >= entries_.size()) return false;
    const Entry& entry = entries_[idx];
    return entry.valid && entry.serial == serial && entry.planned == planned &&
           max_free <= entry.max_free && now < entry.valid_until;
  }

 private:
  std::vector<Entry> entries_;
};

}  // namespace sdsched

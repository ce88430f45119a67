// SD-Policy configuration knobs (paper §3.2-3.3).
#pragma once

#include <limits>

#include "core/guest_scan_policy.h"

namespace sdsched {

/// MAX_SLOWDOWN cut-off flavour (§3.2.2).
enum class CutoffKind : int {
  Static = 0,          ///< administrator-chosen constant (MAXSD 5/10/50)
  Infinite = 1,        ///< no cut-off (MAXSD infinite)
  DynamicAverage = 2,  ///< DynAVGSD: mean estimated slowdown of running jobs
};

struct CutoffConfig {
  CutoffKind kind = CutoffKind::DynamicAverage;
  double value = 10.0;  ///< used when kind == Static

  [[nodiscard]] static CutoffConfig max_sd(double v) noexcept {
    return {CutoffKind::Static, v};
  }
  [[nodiscard]] static CutoffConfig infinite() noexcept {
    return {CutoffKind::Infinite, std::numeric_limits<double>::infinity()};
  }
  [[nodiscard]] static CutoffConfig dynamic_avg() noexcept {
    return {CutoffKind::DynamicAverage, 0.0};
  }
};

/// A node holds at most its owner and one guest (SharingFactor 0.5 on a
/// two-socket node, §3.3), so a mate hosts at most one guest at a time.
struct SdConfig {
  /// Fraction of a node's cores a guest may take from a mate (§3.3).
  /// 0.5 = socket isolation on a two-socket node (the MN4 setting).
  double sharing_factor = 0.5;

  /// Maximum mates per guest, the heuristic's `m` (§3.2.4; 2 was optimal).
  int max_mates = 2;

  /// Candidate-list truncation `nm`: only the best-penalty candidates are
  /// combined. 0 = unlimited.
  int max_candidates = 128;

  /// Allow plans mixing shrunk mates with entirely free nodes (§3.2.4
  /// "including free nodes to reduce fragmentation").
  bool include_free_nodes = false;

  /// Future work #1: tune SharingFactor per (mate, guest) pairing from
  /// application profiles instead of the fixed socket split (§3.3).
  bool adaptive_sharing = false;

  CutoffConfig cutoff = CutoffConfig::dynamic_avg();

  /// Per-pass guest budget for saturated queues (the failed-select ledger
  /// beside it is always on). The default is the unbounded pass.
  GuestScanPolicy scan;
};

}  // namespace sdsched

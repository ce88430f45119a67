// Runtime models for malleable jobs (paper §3.4).
//
// A job's duration under changing allocations is integrated over "time
// slots", each slot being one resource configuration. Both models reduce to
// an instantaneous *progress rate* relative to the job's static allocation
// (NodeShare::static_cpus, the balanced split of req_cpus):
//
//   ideal      (Eq. 5): rate = sum_n cpus_n / req_cpus
//                        — the application rebalances its load dynamically,
//                          so performance is linear in total assigned cpus.
//   worst case (Eq. 6): rate = min_n (cpus_n / static_cpus_n)
//                        — a statically balanced application is held back by
//                          its least-provisioned node. For the uniform
//                          splits of whole-node jobs this is exactly the
//                          paper's N * min_n(cpus_per_node) / req_cpus.
//
// A job finishes when integrated progress reaches base_runtime; the paper's
// "increase" is the extra wallclock this integration produces. The SD-Policy
// always *estimates* with the worst-case model (to guarantee completion
// inside mates' allocations, §3.4); the simulated execution uses either,
// which is what Fig. 8 compares.
#pragma once

#include <span>

#include "job/job.h"

namespace sdsched {

enum class RuntimeModelKind : int { Ideal = 0, WorstCase = 1 };

[[nodiscard]] constexpr const char* to_string(RuntimeModelKind kind) noexcept {
  return kind == RuntimeModelKind::Ideal ? "ideal" : "worst-case";
}

/// Progress rate (fraction of static speed) for a job holding `shares`
/// against a request of `req_cpus`. A full static allocation yields exactly
/// 1.0 under both models; a job that inherits more cores than it requested
/// runs faster than 1.
[[nodiscard]] double progress_rate(RuntimeModelKind kind, std::span<const NodeShare> shares,
                                   int req_cpus) noexcept;

/// Extra wallclock to complete `duration` seconds of static-rate work when
/// running at `rate`: duration * (1/rate - 1). Zero when rate >= 1.
[[nodiscard]] SimTime increase_for_rate(SimTime duration, double rate) noexcept;

/// Listing 1's pre-selection guest duration, before mates are known: the
/// worst case under the uniform SharingFactor split runs the guest at rate
/// ~ sharing_factor, so planned + increase_for_rate(planned, sharing_factor).
[[nodiscard]] SimTime quick_duration(SimTime planned, double sharing_factor) noexcept;

/// Extra wallclock a job accrues by spending `shared_duration` of wallclock
/// at `shrunk_rate` (< 1) and catching up at full speed afterwards:
/// (1 - rate) * shared_duration. This is the mate-side increase of Eq. 4.
[[nodiscard]] SimTime lost_progress_increase(SimTime shared_duration,
                                             double shrunk_rate) noexcept;

}  // namespace sdsched

// MAX_SLOWDOWN cut-off computation (paper §3.2.2).
//
// The cut-off bounds the penalty a single mate may absorb. The static
// flavour is an operator constant; DynAVGSD tracks the mean *estimated*
// slowdown of running jobs — estimated from requested times, because those
// are all a real scheduler knows — and is refreshed every scheduling pass
// (the simulator's "whenever the controller is not busy").
#pragma once

#include "core/sd_config.h"
#include "job/job_registry.h"

namespace sdsched {

/// Estimated slowdown of a running job at `now`:
/// (wait + req_time + accrued predicted increase) / req_time.
[[nodiscard]] double estimated_running_slowdown(const Job& job, SimTime now) noexcept;

/// The cut-off value P for this pass. Static and Infinite ignore the list;
/// DynAVGSD averages over the maintained running-id list (ascending ids, so
/// the sum is order-stable), skipping any entry no longer running.
[[nodiscard]] double compute_cutoff(const CutoffConfig& config, const JobRegistry& jobs,
                                    const std::vector<JobId>& running, SimTime now);

}  // namespace sdsched

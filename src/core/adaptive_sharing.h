// Adaptive SharingFactor (paper §3.3 / future work #1).
//
// The paper fixes SharingFactor at 0.5 (socket isolation on MN4) and notes
// that "online performance analysis of running jobs would feed a tuning
// algorithm for selecting optimal values of SharingFactor, further
// increasing nodes efficiency". This implements that tuning from the
// application profiles the contention model already carries:
//
//  * a mate with poor core-scalability (memory-bound, low alpha) loses
//    little by ceding cores, so the guest may take more than the socket
//    split;
//  * a guest with poor scalability gains little from extra cores, so there
//    is no point stressing the mate beyond the base factor;
//  * without profile information the base factor is returned unchanged.
//
// The result is clamped to [0.25, 0.75] so a mate always keeps
// a meaningful share (the rank floor is enforced separately by the
// selector's per-node budgets).
#pragma once

#include "workload/app_profiles.h"

namespace sdsched {

/// SharingFactor for one (mate, guest) pairing. Either profile may be null.
[[nodiscard]] double adaptive_sharing_factor(double base_factor,
                                             const ApplicationProfile* mate_profile,
                                             const ApplicationProfile* guest_profile) noexcept;

}  // namespace sdsched

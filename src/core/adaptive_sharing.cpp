#include "core/adaptive_sharing.h"

#include <algorithm>

namespace sdsched {

namespace {

constexpr double kMinFactor = 0.25;
constexpr double kMaxFactor = 0.75;
/// How aggressively profile mismatch moves the factor.
constexpr double kGain = 0.5;

}  // namespace

double adaptive_sharing_factor(double base_factor, const ApplicationProfile* mate_profile,
                               const ApplicationProfile* guest_profile) noexcept {
  if (mate_profile == nullptr || guest_profile == nullptr) return base_factor;
  // How cheaply the mate cedes cores (1 - alpha: STREAM ~ 0.7, PILS ~ 0)
  // times how much the guest can exploit them (its alpha).
  const double mate_flexibility = 1.0 - mate_profile->scalability_alpha;
  const double guest_hunger = guest_profile->scalability_alpha;
  const double shift = kGain * mate_flexibility * guest_hunger;
  return std::clamp(base_factor * (1.0 + shift), kMinFactor, kMaxFactor);
}

}  // namespace sdsched

#include "model/runtime_model.h"

#include <algorithm>
#include <cmath>

namespace sdsched {

double progress_rate(RuntimeModelKind kind, std::span<const NodeShare> shares,
                     int req_cpus) noexcept {
  if (shares.empty() || req_cpus <= 0) return 0.0;
  double rate = 0.0;
  if (kind == RuntimeModelKind::Ideal) {
    int total = 0;
    for (const auto& share : shares) total += share.cpus;
    rate = static_cast<double>(total) / static_cast<double>(req_cpus);
  } else {
    rate = 1e300;
    for (const auto& share : shares) {
      const int reference = std::max(1, share.static_cpus);
      rate = std::min(rate, static_cast<double>(share.cpus) / reference);
    }
  }
  return std::max(rate, 0.0);
}

SimTime increase_for_rate(SimTime duration, double rate) noexcept {
  if (duration <= 0 || rate >= 1.0) return 0;
  if (rate <= 0.0) return duration;  // degenerate; callers reject zero-rate plans
  const double increase = static_cast<double>(duration) * (1.0 / rate - 1.0);
  return static_cast<SimTime>(std::ceil(increase));
}

SimTime quick_duration(SimTime planned, double sharing_factor) noexcept {
  return planned + increase_for_rate(planned, sharing_factor);
}

SimTime lost_progress_increase(SimTime shared_duration, double shrunk_rate) noexcept {
  if (shared_duration <= 0) return 0;
  const double rate = std::clamp(shrunk_rate, 0.0, 1.0);
  return static_cast<SimTime>(std::ceil((1.0 - rate) * static_cast<double>(shared_duration)));
}

}  // namespace sdsched

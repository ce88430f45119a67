#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace sdsched {

void OnlineStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const noexcept {
  return count_ > 0 ? m2_ / static_cast<double>(count_) : 0.0;
}

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

double percentile_of(std::vector<double> values, double p) noexcept {
  if (values.empty()) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  std::sort(values.begin(), values.end());
  const double idx = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double median_of(std::vector<double> values) noexcept {
  return percentile_of(std::move(values), 0.5);
}

}  // namespace sdsched

// Streaming and batch statistics used by the metrics layer and the
// workload characterization reports.
#pragma once

#include <cstddef>
#include <vector>

namespace sdsched {

/// Welford's online mean/variance. Numerically stable; O(1) per sample.
class OnlineStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return count_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;  ///< population variance
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Batch helpers. `percentile` uses linear interpolation between order
/// statistics (the common "type 7" definition); it copies and sorts.
[[nodiscard]] double percentile_of(std::vector<double> values, double p) noexcept;
[[nodiscard]] double median_of(std::vector<double> values) noexcept;

}  // namespace sdsched

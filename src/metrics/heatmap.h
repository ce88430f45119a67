// Category heatmaps for Figures 4-6: jobs bucketed by (requested nodes x
// runtime), cells holding the mean of a metric; two heatmaps divide
// cell-wise to give the paper's static/SD ratio view.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "metrics/collector.h"

namespace sdsched {

class CategoryHeatmap {
 public:
  /// Buckets: nodes {1, 2-4, 5-16, 17-64, 65-256, 257-1024, >1024},
  /// runtime {<=5m, <=30m, <=2h, <=4h, <=12h, <=1d, >1d} — covering the
  /// paper's "up to 4 hours / up to 512 nodes" talking points.
  CategoryHeatmap();

  using Extractor = std::function<double(const JobRecord&)>;

  /// Accumulate `value(record)` into the record's category.
  void add(const JobRecord& record, double value);

  /// Fill from records with a metric extractor.
  void fill(const std::vector<JobRecord>& records, const Extractor& value);

  [[nodiscard]] std::size_t rows() const noexcept { return node_edges_.size(); }
  [[nodiscard]] std::size_t cols() const noexcept { return time_edges_.size(); }
  [[nodiscard]] double mean(std::size_t row, std::size_t col) const;
  [[nodiscard]] std::size_t count(std::size_t row, std::size_t col) const;
  [[nodiscard]] std::string row_label(std::size_t row) const;
  [[nodiscard]] std::string col_label(std::size_t col) const;

  /// Cell-wise this/other mean ratio (0 where either side is empty) — the
  /// paper's "ratio between static backfill and SD-Policy" view.
  [[nodiscard]] std::vector<std::vector<double>> ratio(const CategoryHeatmap& other) const;

  /// ASCII rendering of cell means (or of a precomputed ratio grid).
  [[nodiscard]] std::string render() const;
  [[nodiscard]] std::string render_grid(const std::vector<std::vector<double>>& grid) const;
  /// ASCII rendering of per-cell job counts.
  [[nodiscard]] std::string render_counts() const;

 private:
  [[nodiscard]] std::size_t node_bucket(int nodes) const noexcept;
  [[nodiscard]] std::size_t time_bucket(SimTime runtime) const noexcept;

  std::vector<int> node_edges_;      ///< upper bound per row (last = +inf)
  std::vector<SimTime> time_edges_;  ///< upper bound per col (last = +inf)
  std::vector<std::vector<double>> sums_;
  std::vector<std::vector<std::size_t>> counts_;
};

}  // namespace sdsched

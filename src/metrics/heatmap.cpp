#include "metrics/heatmap.h"

#include <limits>
#include <sstream>

#include "util/time_utils.h"

namespace sdsched {

namespace {
constexpr int kIntMax = std::numeric_limits<int>::max();
constexpr SimTime kTimeMax = INT64_MAX / 4;
}  // namespace

CategoryHeatmap::CategoryHeatmap()
    : node_edges_{1, 4, 16, 64, 256, 1024, kIntMax},
      time_edges_{5 * kMinute, 30 * kMinute, 2 * kHour, 4 * kHour, 12 * kHour, kDay, kTimeMax},
      sums_(node_edges_.size(), std::vector<double>(time_edges_.size(), 0.0)),
      counts_(node_edges_.size(), std::vector<std::size_t>(time_edges_.size(), 0)) {}

std::size_t CategoryHeatmap::node_bucket(int nodes) const noexcept {
  for (std::size_t i = 0; i < node_edges_.size(); ++i) {
    if (nodes <= node_edges_[i]) return i;
  }
  return node_edges_.size() - 1;
}

std::size_t CategoryHeatmap::time_bucket(SimTime runtime) const noexcept {
  for (std::size_t i = 0; i < time_edges_.size(); ++i) {
    if (runtime <= time_edges_[i]) return i;
  }
  return time_edges_.size() - 1;
}

void CategoryHeatmap::add(const JobRecord& record, double value) {
  const auto row = node_bucket(record.req_nodes);
  const auto col = time_bucket(record.base_runtime);
  sums_[row][col] += value;
  ++counts_[row][col];
}

void CategoryHeatmap::fill(const std::vector<JobRecord>& records, const Extractor& value) {
  for (const auto& record : records) add(record, value(record));
}

double CategoryHeatmap::mean(std::size_t row, std::size_t col) const {
  const auto count = counts_.at(row).at(col);
  return count == 0 ? 0.0 : sums_[row][col] / static_cast<double>(count);
}

std::size_t CategoryHeatmap::count(std::size_t row, std::size_t col) const {
  return counts_.at(row).at(col);
}

std::string CategoryHeatmap::row_label(std::size_t row) const {
  std::ostringstream oss;
  const int lo = row == 0 ? 1 : node_edges_[row - 1] + 1;
  if (node_edges_[row] == kIntMax) {
    oss << "> " << node_edges_[row - 1] << " nodes";
  } else if (lo == node_edges_[row]) {
    oss << lo << " node" << (lo > 1 ? "s" : "");
  } else {
    oss << lo << "-" << node_edges_[row] << " nodes";
  }
  return oss.str();
}

std::string CategoryHeatmap::col_label(std::size_t col) const {
  if (col + 1 == time_edges_.size()) {
    return "> " + format_duration(time_edges_[col - 1]);
  }
  return "<= " + format_duration(time_edges_[col]);
}

std::vector<std::vector<double>> CategoryHeatmap::ratio(const CategoryHeatmap& other) const {
  std::vector<std::vector<double>> grid(rows(), std::vector<double>(cols(), 0.0));
  for (std::size_t r = 0; r < rows(); ++r) {
    for (std::size_t c = 0; c < cols(); ++c) {
      const double ours = mean(r, c);
      const double theirs = other.mean(r, c);
      if (counts_[r][c] > 0 && other.counts_[r][c] > 0 && theirs > 0.0) {
        grid[r][c] = ours / theirs;
      }
    }
  }
  return grid;
}

std::string CategoryHeatmap::render() const {
  std::vector<std::vector<double>> grid(rows(), std::vector<double>(cols(), 0.0));
  for (std::size_t r = 0; r < rows(); ++r) {
    for (std::size_t c = 0; c < cols(); ++c) grid[r][c] = mean(r, c);
  }
  return render_grid(grid);
}

std::string CategoryHeatmap::render_counts() const {
  std::ostringstream oss;
  oss << std::string(18, ' ');
  for (std::size_t c = 0; c < cols(); ++c) {
    std::string label = col_label(c);
    label.resize(12, ' ');
    oss << label;
  }
  oss << '\n';
  for (std::size_t r = 0; r < rows(); ++r) {
    std::string label = row_label(r);
    label.resize(18, ' ');
    oss << label;
    for (std::size_t c = 0; c < cols(); ++c) {
      char cell[32];
      std::snprintf(cell, sizeof(cell), "%-12zu", counts_[r][c]);
      oss << cell;
    }
    oss << '\n';
  }
  return oss.str();
}

std::string CategoryHeatmap::render_grid(const std::vector<std::vector<double>>& grid) const {
  std::ostringstream oss;
  oss << std::string(18, ' ');
  for (std::size_t c = 0; c < cols(); ++c) {
    std::string label = col_label(c);
    label.resize(12, ' ');
    oss << label;
  }
  oss << '\n';
  for (std::size_t r = 0; r < rows(); ++r) {
    std::string label = row_label(r);
    label.resize(18, ' ');
    oss << label;
    for (std::size_t c = 0; c < cols(); ++c) {
      char cell[32];
      if (counts_[r][c] == 0 && grid[r][c] == 0.0) {
        std::snprintf(cell, sizeof(cell), "%-12s", "-");
      } else {
        std::snprintf(cell, sizeof(cell), "%-12.2f", grid[r][c]);
      }
      oss << cell;
    }
    oss << '\n';
  }
  return oss.str();
}

}  // namespace sdsched

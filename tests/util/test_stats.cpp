#include "util/stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace sdsched {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_EQ(stats.sum(), 0.0);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats stats;
  stats.add(5.0);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 5.0);
  EXPECT_DOUBLE_EQ(stats.max(), 5.0);
}

TEST(OnlineStats, KnownMoments) {
  OnlineStats stats;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 4.0);  // classic textbook example
  EXPECT_DOUBLE_EQ(stats.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(BatchStats, PercentileInterpolates) {
  const std::vector<double> values{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile_of(values, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile_of(values, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile_of(values, 0.5), 25.0);
  EXPECT_NEAR(percentile_of(values, 0.25), 17.5, 1e-9);
}

TEST(BatchStats, PercentileUnsortedInput) {
  EXPECT_DOUBLE_EQ(percentile_of({40.0, 10.0, 30.0, 20.0}, 0.5), 25.0);
}

TEST(BatchStats, MedianOddCount) {
  EXPECT_DOUBLE_EQ(median_of({5.0, 1.0, 9.0}), 5.0);
}

TEST(BatchStats, PercentileClampsP) {
  const std::vector<double> values{1.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile_of(values, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(percentile_of(values, 1.5), 2.0);
}

}  // namespace
}  // namespace sdsched

#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace sdsched {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  std::vector<int> seen(6, 0);
  for (int i = 0; i < 6000; ++i) {
    const auto v = rng.uniform_int(2, 7);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 7);
    ++seen[static_cast<std::size_t>(v - 2)];
  }
  for (const int count : seen) {
    EXPECT_GT(count, 700);  // ~1000 expected per value
  }
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(13);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.uniform_int(42, 42), 42);
  }
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(17);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, LognormalMedianIsExpMu) {
  Rng rng(19);
  std::vector<double> samples;
  constexpr int n = 20001;
  samples.reserve(n);
  for (int i = 0; i < n; ++i) samples.push_back(rng.lognormal(3.0, 1.0));
  std::nth_element(samples.begin(), samples.begin() + n / 2, samples.end());
  EXPECT_NEAR(samples[n / 2], std::exp(3.0), std::exp(3.0) * 0.1);
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  Rng rng(23);
  double sum = 0.0;
  constexpr int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.25);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(41);
  const double weights[] = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  constexpr int n = 10000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.weighted_index(weights)];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.03);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.03);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(53);
  Rng child = parent.fork();
  // The child must not replay the parent's sequence.
  Rng parent2(53);
  (void)parent2.next_u64();  // same consumption as fork()
  EXPECT_NE(child.next_u64(), parent2.next_u64());
}

}  // namespace
}  // namespace sdsched

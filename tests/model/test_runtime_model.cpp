#include "model/runtime_model.h"

#include <gtest/gtest.h>

namespace sdsched {
namespace {

std::vector<NodeShare> full_static(int nodes, int cpn) {
  std::vector<NodeShare> shares;
  for (int i = 0; i < nodes; ++i) shares.push_back({i, cpn, cpn});
  return shares;
}

TEST(RuntimeModel, StaticAllocationRunsAtRateOne) {
  const auto shares = full_static(4, 48);
  EXPECT_DOUBLE_EQ(progress_rate(RuntimeModelKind::Ideal, shares, 4 * 48), 1.0);
  EXPECT_DOUBLE_EQ(progress_rate(RuntimeModelKind::WorstCase, shares, 4 * 48), 1.0);
}

TEST(RuntimeModel, UnevenStaticSplitStillRateOne) {
  // A 50-cpu job on 2 nodes holds 25+25: both models must report rate 1.
  const std::vector<NodeShare> shares{{0, 25, 25}, {1, 25, 25}};
  EXPECT_DOUBLE_EQ(progress_rate(RuntimeModelKind::Ideal, shares, 50), 1.0);
  EXPECT_DOUBLE_EQ(progress_rate(RuntimeModelKind::WorstCase, shares, 50), 1.0);
}

TEST(RuntimeModel, IdealIsLinearInTotalCpus) {
  // Eq. 5: half the cpus -> half the rate, regardless of distribution.
  const std::vector<NodeShare> shares{{0, 48, 48}, {1, 0 + 0, 48}};  // placeholder below
  std::vector<NodeShare> uneven{{0, 48, 48}, {1, 0, 48}};
  uneven[1].cpus = 0;  // degenerate: one node lost entirely
  EXPECT_DOUBLE_EQ(progress_rate(RuntimeModelKind::Ideal, uneven, 96), 0.5);
  const std::vector<NodeShare> even{{0, 24, 48}, {1, 24, 48}};
  EXPECT_DOUBLE_EQ(progress_rate(RuntimeModelKind::Ideal, even, 96), 0.5);
}

TEST(RuntimeModel, WorstCaseLimitedByMinNode) {
  // Eq. 6: one node shrunk to half holds the whole job to half speed.
  const std::vector<NodeShare> shares{{0, 48, 48}, {1, 24, 48}};
  EXPECT_DOUBLE_EQ(progress_rate(RuntimeModelKind::WorstCase, shares, 96), 0.5);
  // Ideal sees the same allocation as 75%.
  EXPECT_DOUBLE_EQ(progress_rate(RuntimeModelKind::Ideal, shares, 96), 0.75);
}

TEST(RuntimeModel, WorstCaseNeverAboveIdeal) {
  const std::vector<NodeShare> configs[] = {
      {{0, 48, 48}, {1, 24, 48}},
      {{0, 12, 48}, {1, 36, 48}, {2, 48, 48}},
      {{0, 24, 24}, {1, 10, 24}},
  };
  for (const auto& shares : configs) {
    int req = 0;
    for (const auto& s : shares) req += s.static_cpus;
    EXPECT_LE(progress_rate(RuntimeModelKind::WorstCase, shares, req),
              progress_rate(RuntimeModelKind::Ideal, shares, req) + 1e-12);
  }
}

TEST(RuntimeModel, EmptySharesZeroRate) {
  EXPECT_DOUBLE_EQ(progress_rate(RuntimeModelKind::Ideal, {}, 48), 0.0);
  EXPECT_DOUBLE_EQ(progress_rate(RuntimeModelKind::WorstCase, {}, 48), 0.0);
}

// No clamp: a job holding more cores than it requested runs superlinear.
TEST(RuntimeModel, ClampSuperlinear) {
  const std::vector<NodeShare> shares{{0, 48, 24}};  // inherited extra cores
  EXPECT_DOUBLE_EQ(progress_rate(RuntimeModelKind::Ideal, shares, 24), 2.0);
  EXPECT_DOUBLE_EQ(progress_rate(RuntimeModelKind::WorstCase, shares, 24), 2.0);
}

TEST(RuntimeModel, IncreaseForRateClosedForm) {
  // Paper example: SharingFactor 0.5 doubles the runtime -> increase == req.
  EXPECT_EQ(increase_for_rate(1000, 0.5), 1000);
  EXPECT_EQ(increase_for_rate(1000, 1.0), 0);
  EXPECT_EQ(increase_for_rate(1000, 2.0), 0);
  EXPECT_EQ(increase_for_rate(900, 0.75), 300);
  EXPECT_EQ(increase_for_rate(0, 0.5), 0);
}

TEST(RuntimeModel, IncreaseRoundsUp) {
  // 100/0.3 - 100 = 233.33 -> 234.
  EXPECT_EQ(increase_for_rate(100, 0.3), 234);
}

// Listing 1's pre-selection duration: the guest at the SharingFactor rate.
TEST(RuntimeModel, QuickDurationIsListingOneEstimate) {
  EXPECT_EQ(quick_duration(1000, 0.5), 2000);
  EXPECT_EQ(quick_duration(1000, 1.0), 1000);
  EXPECT_EQ(quick_duration(0, 0.5), 0);
  for (const SimTime planned : {SimTime{0}, SimTime{1}, SimTime{100}, SimTime{3600}}) {
    for (const double sf : {0.1, 0.3, 0.5, 0.75, 1.0}) {
      EXPECT_EQ(quick_duration(planned, sf), planned + increase_for_rate(planned, sf))
          << "planned " << planned << ", sharing factor " << sf;
    }
  }
}

TEST(RuntimeModel, LostProgressIncrease) {
  // Shrunk to rate 0.5 for 600s: 300s of work lost.
  EXPECT_EQ(lost_progress_increase(600, 0.5), 300);
  EXPECT_EQ(lost_progress_increase(600, 1.0), 0);
  EXPECT_EQ(lost_progress_increase(600, 0.0), 600);
  EXPECT_EQ(lost_progress_increase(0, 0.5), 0);
}

TEST(RuntimeModel, ZeroRateIncreaseDegenerate) {
  EXPECT_EQ(increase_for_rate(500, 0.0), 500);
}

}  // namespace
}  // namespace sdsched

#include "core/adaptive_sharing.h"

#include <gtest/gtest.h>

namespace sdsched {
namespace {

const ApplicationProfile* profile(const char* name) {
  return &table2_profiles()[profile_index(name)];
}

TEST(AdaptiveSharing, NullProfilesReturnBase) {
  EXPECT_DOUBLE_EQ(adaptive_sharing_factor(0.5, nullptr, nullptr), 0.5);
  EXPECT_DOUBLE_EQ(adaptive_sharing_factor(0.5, profile("PILS"), nullptr), 0.5);
  EXPECT_DOUBLE_EQ(adaptive_sharing_factor(0.5, nullptr, profile("PILS")), 0.5);
}

TEST(AdaptiveSharing, MemoryBoundMateCedesMore) {
  // STREAM mate + PILS guest: the canonical §4.4 pairing — the guest should
  // get more than the socket split.
  const double sf = adaptive_sharing_factor(0.5, profile("STREAM"), profile("PILS"));
  EXPECT_GT(sf, 0.6);
  EXPECT_LE(sf, 0.75);
}

TEST(AdaptiveSharing, ComputeBoundMateKeepsSocketSplit) {
  // PILS scales perfectly: ceding beyond the base split costs real work.
  const double sf = adaptive_sharing_factor(0.5, profile("PILS"), profile("PILS"));
  EXPECT_NEAR(sf, 0.5, 1e-9);
}

TEST(AdaptiveSharing, MemoryBoundGuestGainsLittle) {
  // STREAM guest can't exploit extra cores: stay near the base.
  const double sf = adaptive_sharing_factor(0.5, profile("STREAM"), profile("STREAM"));
  EXPECT_LT(sf, 0.58);
}

TEST(AdaptiveSharing, ClampedToConfiguredRange) {
  // A base already at the ceiling can only be pushed past it: clamp to 0.75.
  EXPECT_DOUBLE_EQ(adaptive_sharing_factor(0.75, profile("STREAM"), profile("PILS")), 0.75);
  // PILS cedes nothing (alpha 1), so a base below the floor is lifted to 0.25.
  EXPECT_DOUBLE_EQ(adaptive_sharing_factor(0.1, profile("PILS"), profile("PILS")), 0.25);
}

TEST(AdaptiveSharing, MonotoneInMateFlexibility) {
  // The less scalable the mate, the more it cedes.
  const double vs_stream = adaptive_sharing_factor(0.5, profile("STREAM"), profile("PILS"));
  const double vs_coreneuron =
      adaptive_sharing_factor(0.5, profile("CoreNeuron"), profile("PILS"));
  const double vs_pils = adaptive_sharing_factor(0.5, profile("PILS"), profile("PILS"));
  EXPECT_GT(vs_stream, vs_coreneuron);
  EXPECT_GT(vs_coreneuron, vs_pils);
}

}  // namespace
}  // namespace sdsched

#include "drom/drom.h"

#include <gtest/gtest.h>

namespace sdsched {
namespace {

TEST(Drom, SetMaskCountsTransitions) {
  DromRegistry drom;
  EXPECT_EQ(drom.shrink_ops(), 0u);
  drom.record_resize(48, 24);
  EXPECT_EQ(drom.shrink_ops(), 1u);
  EXPECT_EQ(drom.expand_ops(), 0u);
  drom.record_resize(24, 48);
  EXPECT_EQ(drom.expand_ops(), 1u);
  // Same-width mask change (migration) counts as neither.
  drom.record_resize(48, 48);
  EXPECT_EQ(drom.shrink_ops(), 1u);
  EXPECT_EQ(drom.expand_ops(), 1u);
}

TEST(Drom, CpuMaskTotal) {
  EXPECT_EQ((CpuMask{{12, 24, 0}}).total(), 36);
  EXPECT_EQ((CpuMask{}).total(), 0);
}

}  // namespace
}  // namespace sdsched

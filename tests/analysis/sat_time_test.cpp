#include "flexopt/analysis/sat_time.hpp"

#include <gtest/gtest.h>

namespace flexopt {
namespace {

TEST(SatTime, InfinityDetection) {
  EXPECT_TRUE(is_infinite(kTimeInfinity));
  EXPECT_FALSE(is_infinite(0));
  EXPECT_FALSE(is_infinite(kTimeInfinity - 1));
}

TEST(SatTime, AddSaturates) {
  EXPECT_EQ(sat_add(2, 3), 5);
  EXPECT_EQ(sat_add(kTimeInfinity, 1), kTimeInfinity);
  EXPECT_EQ(sat_add(1, kTimeInfinity), kTimeInfinity);
  EXPECT_EQ(sat_add(kTimeInfinity - 2, 5), kTimeInfinity);  // overflow -> saturate
  EXPECT_EQ(sat_add(kTimeInfinity - 5, 2), kTimeInfinity - 3);
}

TEST(SatTime, MulSaturates) {
  EXPECT_EQ(sat_mul(7, 6), 42);
  EXPECT_EQ(sat_mul(kTimeInfinity, 2), kTimeInfinity);
  EXPECT_EQ(sat_mul(kTimeInfinity / 2 + 1, 2), kTimeInfinity);
  EXPECT_EQ(sat_mul(123, 0), 0);
}

TEST(SatTime, MulBoundaries) {
  // k = 0 gives 0 for every finite factor, however large.
  EXPECT_EQ(sat_mul(kTimeInfinity - 1, 0), 0);
  EXPECT_EQ(sat_mul(0, kTimeInfinity), 0);
  EXPECT_EQ(sat_mul(1, kTimeInfinity), kTimeInfinity);
  // An exact product of INT64_MAX is representable: it is returned, and it
  // reads as infinity.
  constexpr Time kSeven = 7;
  static_assert(kTimeInfinity % kSeven == 0);
  EXPECT_EQ(sat_mul(kTimeInfinity / kSeven, kSeven), kTimeInfinity);
  EXPECT_EQ(sat_mul(kSeven, kTimeInfinity / kSeven), kTimeInfinity);
  // One past it overflows by one factor's worth and saturates.
  EXPECT_EQ(sat_mul(kTimeInfinity / kSeven + 1, kSeven), kTimeInfinity);
  EXPECT_EQ(sat_mul(kTimeInfinity / kSeven, kSeven + 1), kTimeInfinity);
  // The largest product below INT64_MAX stays exact.
  EXPECT_EQ(sat_mul(kTimeInfinity / 2, 2), kTimeInfinity - 1);
  EXPECT_EQ(sat_mul((kTimeInfinity - 1) / 3, 3), kTimeInfinity - 1);
  EXPECT_EQ(sat_mul(kTimeInfinity / 2 - 1, 2), kTimeInfinity - 3);
}

TEST(SatTime, ChainsAbsorb) {
  // Once a term is infinite, any downstream arithmetic stays infinite.
  Time acc = timeunits::us(5);
  acc = sat_add(acc, kTimeInfinity);
  acc = sat_mul(acc, 3);
  acc = sat_add(acc, timeunits::ms(1));
  EXPECT_EQ(acc, kTimeInfinity);
}

}  // namespace
}  // namespace flexopt

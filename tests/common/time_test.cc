#include "common/time.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

namespace tsf::common {
namespace {

TEST(Duration, TickAndTimeUnitConstructors) {
  EXPECT_EQ(Duration::ticks(1000), Duration::time_units(1));
  EXPECT_EQ(Duration::time_units(3).count(), 3000);
  EXPECT_EQ(Duration::zero().count(), 0);
}

TEST(Duration, FromTuRoundsToNearestTick) {
  EXPECT_EQ(Duration::from_tu(0.1), Duration::ticks(100));
  EXPECT_EQ(Duration::from_tu(0.0004), Duration::ticks(0));
  EXPECT_EQ(Duration::from_tu(0.0006), Duration::ticks(1));
  EXPECT_EQ(Duration::from_tu(-1.5), Duration::ticks(-1500));
}

TEST(Duration, CheckedFromTuRejectsWhatTicksCannotHold) {
  EXPECT_EQ(Duration::checked_from_tu(0.1), Duration::ticks(100));
  EXPECT_EQ(Duration::checked_from_tu(-1.5), Duration::ticks(-1500));
  EXPECT_FALSE(Duration::checked_from_tu(std::nan("")).has_value());
  EXPECT_FALSE(Duration::checked_from_tu(HUGE_VAL).has_value());
  EXPECT_FALSE(Duration::checked_from_tu(-HUGE_VAL).has_value());
  EXPECT_FALSE(Duration::checked_from_tu(1e300).has_value());
  // infinite() is the "never" sentinel, not a representable duration.
  EXPECT_FALSE(Duration::checked_from_tu(Duration::infinite().to_tu()));
  EXPECT_TRUE(Duration::checked_from_tu(1e15).has_value());
}

TEST(Duration, Arithmetic) {
  const Duration a = Duration::time_units(3);
  const Duration b = Duration::time_units(2);
  EXPECT_EQ(a + b, Duration::time_units(5));
  EXPECT_EQ(a - b, Duration::time_units(1));
  EXPECT_EQ(-b, Duration::time_units(-2));
  EXPECT_EQ(a * 4, Duration::time_units(12));
  EXPECT_EQ(3 * b, Duration::time_units(6));
  EXPECT_EQ(a / b, 1);
  EXPECT_EQ(a % b, Duration::time_units(1));
}

TEST(Duration, CompoundAssignment) {
  Duration d = Duration::time_units(1);
  d += Duration::time_units(2);
  EXPECT_EQ(d, Duration::time_units(3));
  d -= Duration::time_units(5);
  EXPECT_EQ(d, Duration::time_units(-2));
  EXPECT_TRUE(d.is_negative());
}

TEST(Duration, Ordering) {
  EXPECT_LT(Duration::ticks(1), Duration::ticks(2));
  EXPECT_LE(Duration::ticks(2), Duration::ticks(2));
  EXPECT_GT(Duration::time_units(1), Duration::ticks(999));
}

TEST(Duration, InfiniteSentinel) {
  EXPECT_TRUE(Duration::infinite().is_infinite());
  EXPECT_FALSE(Duration::time_units(1'000'000).is_infinite());
  // Adding a reasonable offset keeps it recognisably infinite.
  EXPECT_TRUE((Duration::infinite() + Duration::time_units(5)).is_infinite());
}

TEST(Duration, ToTu) {
  EXPECT_DOUBLE_EQ(Duration::ticks(1500).to_tu(), 1.5);
  EXPECT_DOUBLE_EQ(Duration::zero().to_tu(), 0.0);
}

TEST(TimePoint, ArithmeticWithDurations) {
  const TimePoint t = TimePoint::origin() + Duration::time_units(5);
  EXPECT_EQ(t.ticks(), 5000);
  EXPECT_EQ(t - TimePoint::origin(), Duration::time_units(5));
  EXPECT_EQ(t - Duration::time_units(2),
            TimePoint::origin() + Duration::time_units(3));
}

TEST(TimePoint, NeverSentinel) {
  EXPECT_TRUE(TimePoint::never().is_never());
  EXPECT_FALSE(TimePoint::origin().is_never());
  EXPECT_LT(TimePoint::origin() + Duration::time_units(1'000'000),
            TimePoint::never());
}

TEST(TimePoint, MinMaxHelpers) {
  const TimePoint a = TimePoint::at_ticks(5);
  const TimePoint b = TimePoint::at_ticks(9);
  EXPECT_EQ(min(a, b), a);
  EXPECT_EQ(max(a, b), b);
  EXPECT_EQ(min(Duration::ticks(3), Duration::ticks(1)), Duration::ticks(1));
  EXPECT_EQ(max(Duration::ticks(3), Duration::ticks(1)), Duration::ticks(3));
}

TEST(TimeFormatting, RendersTimeUnits) {
  EXPECT_EQ(to_string(Duration::time_units(3)), "3tu");
  EXPECT_EQ(to_string(Duration::ticks(3250)), "3.25tu");
  EXPECT_EQ(to_string(Duration::ticks(-500)), "-0.5tu");
  EXPECT_EQ(to_string(Duration::infinite()), "inf");
  EXPECT_EQ(to_string(TimePoint::never()), "never");
  std::ostringstream oss;
  oss << Duration::ticks(100) << " " << TimePoint::at_ticks(2000);
  EXPECT_EQ(oss.str(), "0.1tu 2tu");
}

}  // namespace
}  // namespace tsf::common

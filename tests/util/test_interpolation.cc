/** @file Tests for PiecewiseLinear interpolation. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/error.hh"
#include "util/interpolation.hh"

namespace tts {
namespace {

PiecewiseLinear
rampCurve()
{
    return PiecewiseLinear({{0.0, 0.0}, {1.0, 2.0}, {3.0, 2.0},
                            {4.0, 6.0}});
}

TEST(PiecewiseLinear, EvaluatesAtBreakpoints)
{
    auto f = rampCurve();
    EXPECT_DOUBLE_EQ(f(0.0), 0.0);
    EXPECT_DOUBLE_EQ(f(1.0), 2.0);
    EXPECT_DOUBLE_EQ(f(3.0), 2.0);
    EXPECT_DOUBLE_EQ(f(4.0), 6.0);
}

TEST(PiecewiseLinear, InterpolatesBetweenBreakpoints)
{
    auto f = rampCurve();
    EXPECT_DOUBLE_EQ(f(0.5), 1.0);
    EXPECT_DOUBLE_EQ(f(2.0), 2.0);
    EXPECT_DOUBLE_EQ(f(3.5), 4.0);
}

TEST(PiecewiseLinear, ClampsOutsideDomain)
{
    auto f = rampCurve();
    EXPECT_DOUBLE_EQ(f(-5.0), 0.0);
    EXPECT_DOUBLE_EQ(f(100.0), 6.0);
}

TEST(PiecewiseLinear, ConstructorSortsPoints)
{
    PiecewiseLinear f({{3.0, 9.0}, {1.0, 1.0}, {2.0, 4.0}});
    EXPECT_DOUBLE_EQ(f(1.5), 2.5);
    EXPECT_DOUBLE_EQ(f.minX(), 1.0);
    EXPECT_DOUBLE_EQ(f.maxX(), 3.0);
}

TEST(PiecewiseLinear, AddPointKeepsOrder)
{
    PiecewiseLinear f;
    f.addPoint(2.0, 4.0);
    f.addPoint(0.0, 0.0);
    f.addPoint(1.0, 2.0);
    EXPECT_DOUBLE_EQ(f(0.5), 1.0);
    EXPECT_EQ(f.size(), 3u);
}

TEST(PiecewiseLinear, RejectsDuplicateX)
{
    PiecewiseLinear f;
    f.addPoint(1.0, 1.0);
    EXPECT_THROW(f.addPoint(1.0, 2.0), FatalError);
    EXPECT_THROW(
        PiecewiseLinear({{1.0, 1.0}, {1.0, 2.0}}), FatalError);
}

TEST(PiecewiseLinear, EmptyCurveThrowsOnEval)
{
    PiecewiseLinear f;
    EXPECT_TRUE(f.empty());
    EXPECT_THROW(f(0.0), FatalError);
}

TEST(PiecewiseLinear, InverseOfMonotoneCurve)
{
    PiecewiseLinear f({{0.0, 10.0}, {2.0, 20.0}, {5.0, 50.0}});
    EXPECT_DOUBLE_EQ(f.inverse(10.0), 0.0);
    EXPECT_DOUBLE_EQ(f.inverse(15.0), 1.0);
    EXPECT_DOUBLE_EQ(f.inverse(35.0), 3.5);
    EXPECT_DOUBLE_EQ(f.inverse(50.0), 5.0);
}

TEST(PiecewiseLinear, InverseClampsOutsideRange)
{
    PiecewiseLinear f({{0.0, 10.0}, {5.0, 50.0}});
    EXPECT_DOUBLE_EQ(f.inverse(0.0), 0.0);
    EXPECT_DOUBLE_EQ(f.inverse(99.0), 5.0);
}

TEST(PiecewiseLinear, InverseRejectsNonMonotone)
{
    auto f = rampCurve();  // Flat segment -> not strictly increasing.
    EXPECT_THROW(f.inverse(2.0), FatalError);
}

TEST(PiecewiseLinear, InverseRoundTrip)
{
    PiecewiseLinear f({{-2.0, 1.0}, {0.0, 5.0}, {4.0, 9.0}});
    for (double x = -2.0; x <= 4.0; x += 0.37)
        EXPECT_NEAR(f.inverse(f(x)), x, 1e-12);
}

TEST(PiecewiseLinear, IntegralOfLinearSegment)
{
    PiecewiseLinear f({{0.0, 0.0}, {2.0, 4.0}});
    EXPECT_DOUBLE_EQ(f.integral(0.0, 2.0), 4.0);
    EXPECT_DOUBLE_EQ(f.integral(0.0, 1.0), 1.0);
}

TEST(PiecewiseLinear, IntegralAcrossBreakpoints)
{
    auto f = rampCurve();
    // 0..1: triangle area 1; 1..3: rectangle 4; 3..4: trapezoid 4.
    EXPECT_DOUBLE_EQ(f.integral(0.0, 4.0), 9.0);
}

TEST(PiecewiseLinear, IntegralReversedLimitsNegates)
{
    auto f = rampCurve();
    EXPECT_DOUBLE_EQ(f.integral(4.0, 0.0), -9.0);
}

TEST(PiecewiseLinear, IntegralExtrapolatedRegionIsFlat)
{
    PiecewiseLinear f({{0.0, 2.0}, {1.0, 2.0}});
    EXPECT_DOUBLE_EQ(f.integral(-1.0, 0.0), 2.0);
    EXPECT_DOUBLE_EQ(f.integral(1.0, 3.0), 4.0);
}

TEST(PiecewiseLinear, StrictlyIncreasingDetection)
{
    EXPECT_TRUE(PiecewiseLinear({{0.0, 0.0}, {1.0, 1.0}})
                    .strictlyIncreasing());
    EXPECT_FALSE(rampCurve().strictlyIncreasing());
}

TEST(PiecewiseLinear, AddPointThatBreaksMonotonicityMakesInverseThrow)
{
    PiecewiseLinear f;
    f.addPoint(0.0, 10.0);
    f.addPoint(2.0, 20.0);
    f.addPoint(5.0, 50.0);
    ASSERT_TRUE(f.strictlyIncreasing());
    EXPECT_DOUBLE_EQ(f.inverse(15.0), 1.0);
    f.addPoint(1.0, 30.0);  // 10, 30, 20, 50: no longer monotone.
    EXPECT_FALSE(f.strictlyIncreasing());
    EXPECT_THROW(f.inverse(15.0), FatalError);
}

TEST(PiecewiseLinear, NanArgumentReadsNothingPastTheCurve)
{
    // A NaN passes both end clamps; the segment search then finds no
    // breakpoint above it and must not read one past the last.  The
    // ASan lane turns such a read into a heap-buffer-overflow.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    PiecewiseLinear f({{0.0, 10.0}, {2.0, 20.0}, {5.0, 50.0}});
    EXPECT_TRUE(std::isnan(f(nan)));
    EXPECT_TRUE(std::isnan(f.inverse(nan)));
    EXPECT_TRUE(std::isnan(f.integral(nan, 1.0)));
    // Infinities still clamp to the ends.
    EXPECT_EQ(f(inf), 50.0);
    EXPECT_EQ(f(-inf), 10.0);
    EXPECT_EQ(f.inverse(inf), 5.0);
    EXPECT_EQ(f.inverse(-inf), 0.0);
}

} // namespace
} // namespace tts

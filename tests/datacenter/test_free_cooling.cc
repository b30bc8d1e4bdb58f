/** @file Tests for the ambient model and economizer plant. */

#include <cmath>
#include <gtest/gtest.h>
#include <limits>

#include "datacenter/free_cooling.hh"
#include "util/error.hh"
#include "util/units.hh"

namespace tts {
namespace datacenter {
namespace {

TEST(AmbientModel, PeaksAtConfiguredHour)
{
    AmbientModel a;
    EXPECT_NEAR(a.at(units::hours(15.0)), a.meanC + a.amplitudeC,
                1e-9);
    EXPECT_NEAR(a.at(units::hours(3.0)), a.meanC - a.amplitudeC,
                1e-9);
    EXPECT_NEAR(a.troughHour(), 3.0, 1e-12);
}

TEST(AmbientModel, MeanOverDayIsMean)
{
    AmbientModel a;
    double sum = 0.0;
    int n = 0;
    for (double h = 0.0; h < 24.0; h += 0.25, ++n)
        sum += a.at(units::hours(h));
    EXPECT_NEAR(sum / n, a.meanC, 0.01);
}

TEST(AmbientModel, RepeatsDaily)
{
    AmbientModel a;
    EXPECT_NEAR(a.at(units::hours(10.0)),
                a.at(units::days(3.0) + units::hours(10.0)), 1e-9);
}

TEST(Economizer, MechanicalCopAtHotAmbient)
{
    EconomizerCoolingModel e;
    EXPECT_DOUBLE_EQ(e.copAt(40.0), e.mechanicalCop);
    EXPECT_DOUBLE_EQ(e.copAt(e.returnAirC), e.mechanicalCop);
}

TEST(Economizer, CopImprovesAsAmbientFalls)
{
    EconomizerCoolingModel e;
    EXPECT_GT(e.copAt(20.0), e.copAt(30.0));
    EXPECT_GT(e.copAt(12.0), e.copAt(20.0));
}

TEST(Economizer, FreeCoolingBelowChangeover)
{
    EconomizerCoolingModel e;
    EXPECT_DOUBLE_EQ(e.copAt(5.0), e.freeCop);
    EXPECT_DOUBLE_EQ(e.copAt(e.freeCoolingBelowC), e.freeCop);
}

TEST(Economizer, CopNeverExceedsFreeCop)
{
    EconomizerCoolingModel e;
    e.copPerDegree = 10.0;  // Absurdly strong assist.
    EXPECT_LE(e.copAt(11.0), e.freeCop);
}

TEST(Economizer, ElectricPowerUsesEffectiveCop)
{
    EconomizerCoolingModel e;
    EXPECT_NEAR(e.electricPower(35000.0, 40.0),
                35000.0 / e.mechanicalCop, 1e-9);
    EXPECT_NEAR(e.electricPower(35000.0, 5.0),
                35000.0 / e.freeCop, 1e-9);
    EXPECT_THROW(e.electricPower(-1.0, 20.0), FatalError);
}

TEST(Economizer, NightLoadIsCheaperThanDayLoad)
{
    // The Figure 1 argument: the same joules cost less electricity
    // at night because the economizer assist is stronger.
    EconomizerCoolingModel e;
    AmbientModel ambient;
    for (double h = 0.0; h < 4.0; h += 0.5) {
        EXPECT_LT(e.electricPower(1000.0,
                                  ambient.at(units::hours(h))),
                  e.electricPower(1000.0,
                                  ambient.at(units::hours(12.0 + h))))
            << h;
    }
}

TEST(Economizer, RejectsNonFiniteAmbient)
{
    EconomizerCoolingModel e;
    EXPECT_THROW(e.copAt(std::nan("")), FatalError);
    EXPECT_THROW(e.copAt(std::numeric_limits<double>::infinity()),
                 FatalError);
    EXPECT_THROW(e.electricPower(1000.0, std::nan("")), FatalError);
}

TEST(Economizer, RejectsDegenerateModel)
{
    {
        EconomizerCoolingModel e;
        e.mechanicalCop = 0.0;
        EXPECT_THROW(e.copAt(20.0), FatalError);
    }
    {
        EconomizerCoolingModel e;
        e.mechanicalCop = -3.5;
        EXPECT_THROW(e.copAt(20.0), FatalError);
    }
    {
        EconomizerCoolingModel e;
        e.freeCop = 0.0;
        EXPECT_THROW(e.copAt(20.0), FatalError);
    }
    {
        EconomizerCoolingModel e;
        e.copPerDegree = -0.25;
        EXPECT_THROW(e.copAt(20.0), FatalError);
    }
    {
        EconomizerCoolingModel e;
        e.returnAirC = std::nan("");
        EXPECT_THROW(e.copAt(20.0), FatalError);
    }
    {
        EconomizerCoolingModel e;
        e.freeCoolingBelowC = std::nan("");
        EXPECT_THROW(e.copAt(20.0), FatalError);
    }
}

TEST(Economizer, RejectsNonFiniteLoad)
{
    EconomizerCoolingModel e;
    EXPECT_THROW(e.electricPower(std::nan(""), 20.0), FatalError);
    EXPECT_THROW(
        e.electricPower(std::numeric_limits<double>::infinity(),
                        20.0),
        FatalError);
}

TEST(Economizer, DefaultArithmeticUnchanged)
{
    // Pin the default model's arithmetic: the edge-case guards must
    // not move any in-range result.
    EconomizerCoolingModel e;
    EXPECT_DOUBLE_EQ(e.copAt(20.0), 3.5 + 0.25 * 15.0);
    EXPECT_DOUBLE_EQ(e.copAt(10.0 + 1e-9),
                     3.5 + 0.25 * (35.0 - (10.0 + 1e-9)));
    EXPECT_DOUBLE_EQ(e.electricPower(7000.0, 20.0),
                     7000.0 / (3.5 + 0.25 * 15.0));
}

} // namespace
} // namespace datacenter
} // namespace tts

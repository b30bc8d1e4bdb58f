/** @file Tests for the cooling plant and tariff models. */

#include <gtest/gtest.h>

#include "datacenter/cooling_system.hh"
#include "util/error.hh"
#include "util/units.hh"

namespace tts {
namespace datacenter {
namespace {

TEST(ElectricityTariff, PeakWindowMatchesPaper)
{
    // 7 AM - 7 PM peak (Figure 1's framing), $0.13 / $0.08 per kWh.
    ElectricityTariff t;
    EXPECT_FALSE(t.isPeak(units::hours(3.0)));
    EXPECT_TRUE(t.isPeak(units::hours(7.0)));
    EXPECT_TRUE(t.isPeak(units::hours(12.0)));
    EXPECT_FALSE(t.isPeak(units::hours(19.0)));
    EXPECT_FALSE(t.isPeak(units::hours(23.0)));
}

TEST(ElectricityTariff, PricesMatchPaper)
{
    ElectricityTariff t;
    EXPECT_DOUBLE_EQ(t.priceAt(units::hours(12.0)), 0.13);
    EXPECT_DOUBLE_EQ(t.priceAt(units::hours(2.0)), 0.08);
}

TEST(ElectricityTariff, WrapsAcrossDays)
{
    ElectricityTariff t;
    EXPECT_TRUE(t.isPeak(units::days(1.0) + units::hours(10.0)));
    EXPECT_FALSE(t.isPeak(units::days(1.0) + units::hours(22.0)));
}

TEST(ElectricityTariff, OvernightPeakWindow)
{
    ElectricityTariff t;
    t.peakStartHour = 22.0;
    t.peakEndHour = 6.0;
    EXPECT_TRUE(t.isPeak(units::hours(23.0)));
    EXPECT_TRUE(t.isPeak(units::hours(3.0)));
    EXPECT_FALSE(t.isPeak(units::hours(12.0)));
}

TEST(ElectricityTariff, CostOfConstantPower)
{
    ElectricityTariff t;
    TimeSeries p("w");
    p.append(0.0, 1000.0);                     // 1 kW all day.
    p.append(units::days(1.0), 1000.0);
    // 12 h at 0.13 + 12 h at 0.08 = 2.52 $/day.
    EXPECT_NEAR(t.costOf(p), 12.0 * 0.13 + 12.0 * 0.08, 0.03);
}

TEST(ElectricityTariff, PeakOnlyPowerCostsMore)
{
    ElectricityTariff t;
    TimeSeries peaky("w"), nighty("w");
    // Same energy, different placement.
    peaky.append(0.0, 0.0);
    peaky.append(units::hours(10.0), 0.0);
    peaky.append(units::hours(10.0) + 1.0, 1000.0);
    peaky.append(units::hours(14.0), 1000.0);
    peaky.append(units::hours(14.0) + 1.0, 0.0);
    peaky.append(units::days(1.0), 0.0);

    nighty.append(0.0, 0.0);
    nighty.append(units::hours(1.0), 0.0);
    nighty.append(units::hours(1.0) + 1.0, 1000.0);
    nighty.append(units::hours(5.0), 1000.0);
    nighty.append(units::hours(5.0) + 1.0, 0.0);
    nighty.append(units::days(1.0), 0.0);

    EXPECT_GT(t.costOf(peaky), t.costOf(nighty));
}

TEST(CoolingSystem, UtilizationAndOverload)
{
    CoolingSystem plant(100000.0);
    EXPECT_DOUBLE_EQ(plant.utilization(50000.0), 0.5);
    EXPECT_FALSE(plant.overloaded(100000.0));
    EXPECT_TRUE(plant.overloaded(100001.0));
}

TEST(CoolingSystem, ElectricPowerUsesCop)
{
    CoolingSystem plant(100000.0, 4.0);
    EXPECT_DOUBLE_EQ(plant.electricPower(80000.0), 20000.0);
}

TEST(CoolingSystem, ElectricSeriesMapsLoad)
{
    CoolingSystem plant(1e6, 2.0);
    TimeSeries load("w");
    load.append(0.0, 1000.0);
    load.append(100.0, 3000.0);
    auto elec = plant.electricSeries(load);
    EXPECT_DOUBLE_EQ(elec.at(0.0), 500.0);
    EXPECT_DOUBLE_EQ(elec.at(100.0), 1500.0);
}

TEST(CoolingSystem, EnergyCostCombinesCopAndTariff)
{
    CoolingSystem plant(1e6, 3.5);
    ElectricityTariff tariff;
    TimeSeries load("w");
    load.append(0.0, 350000.0);  // -> 100 kW electric.
    load.append(units::days(1.0), 350000.0);
    double expected = 100.0 * (12.0 * 0.13 + 12.0 * 0.08);
    EXPECT_NEAR(plant.energyCost(load, tariff), expected,
                0.01 * expected);
}

TEST(CoolingSystem, RejectsBadArguments)
{
    EXPECT_THROW(CoolingSystem(0.0), FatalError);
    EXPECT_THROW(CoolingSystem(1e5, 0.0), FatalError);
    CoolingSystem plant(1e5);
    EXPECT_THROW(plant.utilization(-1.0), FatalError);
    EXPECT_THROW(plant.electricPower(-1.0), FatalError);
}

} // namespace
} // namespace datacenter
} // namespace tts

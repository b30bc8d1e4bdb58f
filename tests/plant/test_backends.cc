/**
 * @file
 * Per-backend arithmetic tests: the CRAC adapter must be bit-exact
 * against datacenter::CoolingSystem (the default plant may not move
 * a single pre-plant golden), the hot-water loop must price capture,
 * pump failure, and fouling the way the file comment promises, and
 * the economizer must defer to EconomizerCoolingModel at the step's
 * ambient.
 */

#include <cmath>
#include <gtest/gtest.h>

#include "datacenter/cooling_system.hh"
#include "plant/backend.hh"
#include "plant/study.hh"
#include "util/error.hh"
#include "util/units.hh"

namespace tts {
namespace plant {
namespace {

PlantStep
stepAt(double t_s, double load_w)
{
    PlantStep s;
    s.timeS = t_s;
    s.dtS = 60.0;
    s.heatLoadW = load_w;
    return s;
}

/** Two days of a diurnal sinusoid around 50 kW, every 15 min. */
PlantScenario
sinusoidScenario()
{
    PlantScenario scenario;
    for (double h = 0.0; h <= 48.0; h += 0.25)
        scenario.loadW.append(units::hours(h),
                              50000.0 + 20000.0 *
                                  std::sin(h * 2.0 * M_PI / 24.0));
    return scenario;
}

TEST(CracBackend, ElectricMatchesCoolingSystemExactly)
{
    PlantTuning tuning;
    auto b = makeBackend(BackendKind::Crac, tuning);
    datacenter::CoolingSystem legacy(1e6, tuning.cracCop);
    for (double load : {0.0, 123.456, 35000.0, 987654.321}) {
        auto r = b->step(stepAt(0.0, load));
        // Bit equality, not NEAR: the adapter must evaluate the very
        // expression CoolingSystem::electricSeries appends.
        EXPECT_EQ(r.electricW, legacy.electricPower(load)) << load;
        EXPECT_EQ(r.servedW, load);
        EXPECT_EQ(r.reusedW, 0.0);
    }
}

TEST(CracBackend, ClampsNegativeLoadLikeCoolingSystem)
{
    PlantTuning tuning;
    auto b = makeBackend(BackendKind::Crac, tuning);
    auto r = b->step(stepAt(0.0, -500.0));
    EXPECT_EQ(r.electricW, 0.0);
    EXPECT_EQ(r.servedW, 0.0);
}

TEST(CracBackend, CoolingTripShedsProportionally)
{
    PlantTuning tuning;
    auto b = makeBackend(BackendKind::Crac, tuning);
    PlantStep s = stepAt(0.0, 70000.0);
    s.capacityFraction = 0.4;
    auto r = b->step(s);
    EXPECT_DOUBLE_EQ(r.servedW, 70000.0 * 0.4);
    EXPECT_DOUBLE_EQ(r.electricW, 70000.0 * 0.4 / tuning.cracCop);
}

TEST(CracBackend, RunCostMatchesCoolingSystemEnergyCost)
{
    // The adapter-equivalence bar: a whole plant run priced under
    // the default backend must reproduce CoolingSystem::energyCost
    // bit for bit (same samples, same trapezoid, same tariff).
    const PlantScenario scenario = sinusoidScenario();
    PlantConfig config;
    auto r = runPlant(scenario, config);
    ASSERT_TRUE(r.finished);
    EXPECT_EQ(r.backend, "crac");

    datacenter::CoolingSystem legacy(1e9, config.tuning.cracCop);
    EXPECT_EQ(r.energyCostUsd,
              legacy.energyCost(scenario.loadW,
                                config.tuning.tariff));

    // The recorded electric series is the legacy series verbatim.
    auto legacy_series = legacy.electricSeries(scenario.loadW);
    ASSERT_EQ(r.electricW.size(), legacy_series.size());
    for (std::size_t i = 0; i < legacy_series.size(); ++i) {
        EXPECT_EQ(r.electricW.times()[i], legacy_series.times()[i]);
        EXPECT_EQ(r.electricW.values()[i],
                  legacy_series.values()[i]);
    }
}

TEST(CracBackend, AdapterDeltaDetectsAOneUlpCopChange)
{
    // The plant.adapter.cost_delta_usd = 0 golden must be able to
    // fail: the same yearly delta, with the reference plant's COP
    // raised by one ulp, is nonzero.
    const PlantScenario scenario = sinusoidScenario();
    PlantConfig config;
    const PlantResult r = runPlant(scenario, config);
    ASSERT_TRUE(r.finished);
    const double span_days =
        (scenario.loadW.endTime() - scenario.loadW.startTime()) /
        86400.0;
    auto delta = [&](double cop) {
        datacenter::CoolingSystem legacy(1e9, cop);
        double legacy_yearly =
            legacy.energyCost(scenario.loadW, config.tuning.tariff) *
            365.25 / span_days;
        return std::abs(r.yearlyNetCostUsd - legacy_yearly);
    };
    const double cop = config.tuning.cracCop;
    EXPECT_EQ(delta(cop), 0.0);
    EXPECT_GT(delta(std::nextafter(cop, 2.0 * cop)), 0.0);
}

TEST(HotWaterBackend, CapturesEffectivenessFraction)
{
    PlantTuning tuning;
    auto b = makeBackend(BackendKind::HotWater, tuning);
    double load = 100000.0;
    auto r = b->step(stepAt(0.0, load));
    EXPECT_DOUBLE_EQ(r.reusedW, load * tuning.hwEffectiveness);
    double residual = load * (1.0 - tuning.hwEffectiveness);
    EXPECT_DOUBLE_EQ(r.electricW,
                     residual / tuning.hwMechanicalCop +
                         tuning.hwPumpFraction * load);
}

TEST(HotWaterBackend, PumpFailureFallsBackToBackupChiller)
{
    PlantTuning tuning;
    auto b = makeBackend(BackendKind::HotWater, tuning);
    PlantStep s = stepAt(0.0, 100000.0);
    s.pumpFailed = true;
    auto r = b->step(s);
    EXPECT_DOUBLE_EQ(r.electricW, 100000.0 / tuning.hwBackupCop);
    // Nothing captured, no pump overhead while the loop is down.
    EXPECT_EQ(r.reusedW, 0.0);
    // Backup mode is strictly more expensive than the healthy loop.
    EXPECT_GT(r.electricW,
              b->step(stepAt(60.0, 100000.0)).electricW);
}

TEST(HotWaterBackend, FoulingErodesCapture)
{
    PlantTuning tuning;
    auto b = makeBackend(BackendKind::HotWater, tuning);
    PlantStep s = stepAt(0.0, 100000.0);
    s.hxFouling = 0.3;
    auto r = b->step(s);
    EXPECT_DOUBLE_EQ(r.reusedW,
                     100000.0 * tuning.hwEffectiveness * 0.7);
    // Fouling beyond 1 clamps: a dead exchanger, not a heat source.
    s.hxFouling = 1.5;
    auto dead = b->step(s);
    EXPECT_EQ(dead.reusedW, 0.0);
    EXPECT_DOUBLE_EQ(dead.electricW,
                     100000.0 / tuning.hwMechanicalCop +
                         tuning.hwPumpFraction * 100000.0);
}

TEST(HotWaterBackend, RejectsDegenerateTuning)
{
    {
        PlantTuning t;
        t.hwEffectiveness = 0.0;
        EXPECT_THROW(makeBackend(BackendKind::HotWater, t),
                     FatalError);
    }
    {
        PlantTuning t;
        t.hwEffectiveness = 1.5;
        EXPECT_THROW(makeBackend(BackendKind::HotWater, t),
                     FatalError);
    }
    {
        PlantTuning t;
        t.hwBackupCop = 0.0;
        EXPECT_THROW(makeBackend(BackendKind::HotWater, t),
                     FatalError);
    }
    {
        PlantTuning t;
        t.hwPumpFraction = -0.01;
        EXPECT_THROW(makeBackend(BackendKind::HotWater, t),
                     FatalError);
    }
}

TEST(EconomizerBackend, PricesAtTheStepAmbient)
{
    PlantTuning tuning;
    auto b = makeBackend(BackendKind::Economizer, tuning);
    PlantStep s = stepAt(0.0, 50000.0);
    s.ambientC = 5.0; // Below changeover: fans only.
    EXPECT_DOUBLE_EQ(b->step(s).electricW,
                     50000.0 / tuning.economizer.freeCop);
    s.ambientC = 40.0; // Hot: plain mechanical COP.
    EXPECT_DOUBLE_EQ(b->step(s).electricW,
                     50000.0 / tuning.economizer.mechanicalCop);
    s.ambientC = 20.0;
    EXPECT_DOUBLE_EQ(
        b->step(s).electricW,
        tuning.economizer.electricPower(50000.0, 20.0));
}

TEST(EconomizerBackend, RejectsDegenerateModelUpFront)
{
    PlantTuning t;
    t.economizer.mechanicalCop = 0.0;
    EXPECT_THROW(makeBackend(BackendKind::Economizer, t),
                 FatalError);
}

TEST(MakeBackend, NamesMatchKinds)
{
    PlantTuning tuning;
    EXPECT_STREQ(makeBackend(BackendKind::Crac, tuning)->name(),
                 "crac");
    EXPECT_STREQ(makeBackend(BackendKind::HotWater, tuning)->name(),
                 "hot_water");
    EXPECT_STREQ(
        makeBackend(BackendKind::Economizer, tuning)->name(),
        "economizer");
    EXPECT_STREQ(makeBackend(BackendKind::Mpc, tuning)->name(),
                 "mpc");
}

TEST(BackendKindNames, RoundTripAndReject)
{
    for (auto kind : {BackendKind::Crac, BackendKind::HotWater,
                      BackendKind::Economizer, BackendKind::Mpc})
        EXPECT_EQ(backendKindFromString(toString(kind)), kind);
    EXPECT_THROW(backendKindFromString("chilled_beam"), FatalError);
    EXPECT_THROW(backendKindFromString(""), FatalError);
}

} // namespace
} // namespace plant
} // namespace tts

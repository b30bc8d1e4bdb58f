/**
 * @file
 * Plant runner tests: fault replay (pump failure, exchanger
 * fouling, weather gaps, cooling trips) must move the economics the
 * way physics says, a killed-and-resumed run must be bit-identical
 * to an uninterrupted one for every backend, and compareBackends
 * must not care how many threads it runs on.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <gtest/gtest.h>
#include <string>

#include "exec/parallel.hh"
#include "fault/fault_schedule.hh"
#include "guard/checkpoint.hh"
#include "plant/study.hh"
#include "server/server_spec.hh"
#include "util/error.hh"
#include "util/units.hh"
#include "workload/google_trace.hh"

namespace tts {
namespace plant {
namespace {

/** One day of diurnal heat load on the 300 s cluster grid. */
PlantScenario
dayScenario()
{
    PlantScenario scenario;
    for (double t = 0.0; t <= units::days(1.0) + 1e-9; t += 300.0) {
        double hour = t / 3600.0;
        double phase = 2.0 * M_PI * (hour - 14.0) / 24.0;
        scenario.loadW.append(t,
                              60000.0 + 25000.0 * std::cos(phase));
    }
    return scenario;
}

/** The full menagerie: every plant-relevant fault kind fires. */
fault::FaultSchedule
stressSchedule()
{
    fault::FaultSchedule s;
    s.add(units::hours(2.0), fault::FaultKind::PumpFailure);
    s.add(units::hours(5.0), fault::FaultKind::PumpRepair);
    s.add(units::hours(7.0), fault::FaultKind::HxFouling,
          fault::FaultEvent::noTarget, 0.3);
    s.add(units::hours(9.0), fault::FaultKind::WeatherGapStart);
    s.add(units::hours(12.0), fault::FaultKind::WeatherGapEnd);
    s.add(units::hours(14.0), fault::FaultKind::CoolingTrip,
          fault::FaultEvent::noTarget, 0.5);
    s.add(units::hours(16.0), fault::FaultKind::CoolingRestore,
          fault::FaultEvent::noTarget, 0.5);
    s.add(units::hours(18.0), fault::FaultKind::HxDefoul,
          fault::FaultEvent::noTarget, 0.3);
    return s;
}

void
expectSameResult(const PlantResult &a, const PlantResult &b)
{
    EXPECT_EQ(a.backend, b.backend);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.faultEventsApplied, b.faultEventsApplied);
    EXPECT_EQ(a.electricEnergyJ, b.electricEnergyJ);
    EXPECT_EQ(a.peakElectricW, b.peakElectricW);
    EXPECT_EQ(a.energyCostUsd, b.energyCostUsd);
    EXPECT_EQ(a.reusedEnergyJ, b.reusedEnergyJ);
    EXPECT_EQ(a.reuseCreditUsd, b.reuseCreditUsd);
    EXPECT_EQ(a.shedComputeJ, b.shedComputeJ);
    EXPECT_EQ(a.dvfsPenaltyUsd, b.dvfsPenaltyUsd);
    EXPECT_EQ(a.netCostUsd, b.netCostUsd);
    EXPECT_EQ(a.yearlyNetCostUsd, b.yearlyNetCostUsd);
    EXPECT_EQ(a.unservedJ, b.unservedJ);
    EXPECT_EQ(a.throughputRetention, b.throughputRetention);
    EXPECT_EQ(a.bufferDischargeJ, b.bufferDischargeJ);
    ASSERT_EQ(a.electricW.size(), b.electricW.size());
    for (std::size_t i = 0; i < a.electricW.size(); ++i) {
        EXPECT_EQ(a.electricW.times()[i], b.electricW.times()[i]);
        EXPECT_EQ(a.electricW.values()[i], b.electricW.values()[i]);
    }
}

TEST(RunPlant, RejectsMalformedScenario)
{
    PlantConfig config;
    {
        PlantScenario s;
        s.loadW.append(0.0, 1000.0);
        EXPECT_THROW(runPlant(s, config), FatalError);
    }
    {
        PlantScenario s;
        s.loadW.append(0.0, 1000.0);
        s.loadW.append(300.0, std::nan(""));
        EXPECT_THROW(runPlant(s, config), FatalError);
    }
    {
        auto s = dayScenario();
        s.serverCount = 0;
        EXPECT_THROW(runPlant(s, config), FatalError);
    }
}

TEST(RunPlant, PumpFailureRaisesHotWaterCost)
{
    auto clean = dayScenario();
    auto faulted = dayScenario();
    faulted.faults.add(units::hours(8.0),
                       fault::FaultKind::PumpFailure);
    faulted.faults.add(units::hours(14.0),
                       fault::FaultKind::PumpRepair);
    PlantConfig config;
    config.options.kind = BackendKind::HotWater;
    auto base = runPlant(clean, config);
    auto hit = runPlant(faulted, config);
    ASSERT_TRUE(base.finished);
    ASSERT_TRUE(hit.finished);
    EXPECT_EQ(hit.faultEventsApplied, 2u);
    EXPECT_EQ(base.faultEventsApplied, 0u);
    // Backup-chiller hours cost more and capture nothing.
    EXPECT_GT(hit.energyCostUsd, base.energyCostUsd);
    EXPECT_LT(hit.reusedEnergyJ, base.reusedEnergyJ);
    EXPECT_GT(hit.netCostUsd, base.netCostUsd);
}

TEST(RunPlant, FoulingErodesReuseCredit)
{
    auto clean = dayScenario();
    auto fouled = dayScenario();
    fouled.faults.add(units::hours(6.0),
                      fault::FaultKind::HxFouling,
                      fault::FaultEvent::noTarget, 0.4);
    PlantConfig config;
    config.options.kind = BackendKind::HotWater;
    auto base = runPlant(clean, config);
    auto hit = runPlant(fouled, config);
    EXPECT_LT(hit.reuseCreditUsd, base.reuseCreditUsd);
    EXPECT_GT(hit.netCostUsd, base.netCostUsd);
}

TEST(RunPlant, CoolingTripLeavesHeatUnserved)
{
    auto tripped = dayScenario();
    tripped.faults.add(units::hours(10.0),
                       fault::FaultKind::CoolingTrip,
                       fault::FaultEvent::noTarget, 0.5);
    tripped.faults.add(units::hours(12.0),
                       fault::FaultKind::CoolingRestore,
                       fault::FaultEvent::noTarget, 0.5);
    PlantConfig config;
    auto base = runPlant(dayScenario(), config);
    auto hit = runPlant(tripped, config);
    EXPECT_EQ(base.unservedJ, 0.0);
    EXPECT_GT(hit.unservedJ, 0.0);
    // Shedding load also sheds its electricity.
    EXPECT_LT(hit.electricEnergyJ, base.electricEnergyJ);
}

TEST(RunPlant, WeatherGapHoldsStaleAmbient)
{
    // The trace cools sharply at hour 6; a gap spanning the drop
    // keeps the economizer pricing off the stale warm reading, so
    // the gap run must cost more.  Cooling is cheap after hour 6
    // either way, but only the gap-free run sees it immediately.
    std::string weather = "t_hours,ambient_c\n0,25\n6,25\n6.5,2\n"
                          "24,2\n";
    auto clean = dayScenario();
    auto gapped = dayScenario();
    gapped.faults.add(units::hours(5.0),
                      fault::FaultKind::WeatherGapStart);
    gapped.faults.add(units::hours(18.0),
                      fault::FaultKind::WeatherGapEnd);
    PlantConfig config;
    config.options.kind = BackendKind::Economizer;
    config.weatherText = weather;
    auto base = runPlant(clean, config);
    auto hit = runPlant(gapped, config);
    ASSERT_TRUE(base.finished);
    ASSERT_TRUE(hit.finished);
    EXPECT_EQ(hit.faultEventsApplied, 2u);
    EXPECT_GT(hit.energyCostUsd, base.energyCostUsd);
}

TEST(RunPlant, InlineWeatherTakesPrecedenceOverPath)
{
    // weatherText wins, so the bogus path is never opened.
    auto scenario = dayScenario();
    PlantConfig config;
    config.options.kind = BackendKind::Economizer;
    config.options.weatherPath = "/nonexistent/weather.csv";
    config.weatherText = "t_hours,ambient_c\n0,5\n24,5\n";
    auto r = runPlant(scenario, config);
    ASSERT_TRUE(r.finished);
    // Constant 5 C is below the changeover: fans only, all day.
    EXPECT_DOUBLE_EQ(r.peakElectricW,
                     scenario.loadW.max() /
                         config.tuning.economizer.freeCop);
}

TEST(RunPlant, YearlyScalingUsesSpanDaysOverride)
{
    auto scenario = dayScenario();
    PlantConfig config;
    auto derived = runPlant(scenario, config);
    scenario.spanDays = 2.0;
    auto spanned = runPlant(scenario, config);
    EXPECT_EQ(spanned.netCostUsd, derived.netCostUsd);
    EXPECT_DOUBLE_EQ(spanned.yearlyNetCostUsd,
                     derived.yearlyNetCostUsd / 2.0);
}

TEST(RunPlant, KillResumeBitIdenticalForEveryBackend)
{
    auto scenario = dayScenario();
    scenario.faults = stressSchedule();
    for (auto kind : {BackendKind::Crac, BackendKind::HotWater,
                      BackendKind::Economizer, BackendKind::Mpc}) {
        PlantConfig config;
        config.options.kind = kind;
        auto uninterrupted = runPlant(scenario, config);
        ASSERT_TRUE(uninterrupted.finished) << toString(kind);

        std::string path = testing::TempDir() + "plant_resume_" +
            toString(kind) + ".ckpt";
        std::remove(path.c_str());
        PlantConfig chunked = config;
        chunked.checkpoint.path = path;
        chunked.checkpoint.checkpointEveryS = units::hours(1.0);
        chunked.checkpoint.stopAfterS = units::hours(4.0);
        PlantResult resumed;
        int attempts = 0;
        do {
            // Each attempt is a fresh process image: restore from
            // the file, run four more hours, get killed again.
            resumed = runPlant(scenario, chunked);
            ASSERT_LT(++attempts, 20) << toString(kind);
        } while (!resumed.finished);
        EXPECT_GT(attempts, 2) << toString(kind)
                               << ": pause never engaged";
        expectSameResult(uninterrupted, resumed);
        std::remove(path.c_str());
    }
}

TEST(RunPlant, CheckpointBackendMismatchIsFatal)
{
    auto scenario = dayScenario();
    std::string path =
        testing::TempDir() + "plant_mismatch.ckpt";
    std::remove(path.c_str());
    PlantConfig config;
    config.checkpoint.path = path;
    config.checkpoint.stopAfterS = units::hours(4.0);
    ASSERT_FALSE(runPlant(scenario, config).finished);
    // Resuming a CRAC checkpoint under the MPC backend must refuse.
    config.options.kind = BackendKind::Mpc;
    EXPECT_THROW(runPlant(scenario, config), FatalError);
    std::remove(path.c_str());
}

TEST(RunPlant, NonPositiveCheckpointIntervalIsRejected)
{
    auto scenario = dayScenario();
    std::string path = testing::TempDir() + "plant_interval.ckpt";
    for (double every : {0.0, -60.0}) {
        std::remove(path.c_str());
        PlantConfig config;
        config.checkpoint.path = path;
        config.checkpoint.checkpointEveryS = every;
        try {
            runPlant(scenario, config);
            ADD_FAILURE() << "interval " << every << " was accepted";
        } catch (const FatalError &e) {
            std::string msg = e.what();
            EXPECT_NE(msg.find("checkpointEveryS"), std::string::npos)
                << msg;
            char got[32];
            std::snprintf(got, sizeof(got), "(got %g)", every);
            EXPECT_NE(msg.find(got), std::string::npos) << msg;
        }
        // Refused up front: not one sample was checkpointed.
        EXPECT_FALSE(guard::checkpointExists(path));
    }
}

TEST(RunPlant, CheckpointWithTheOldSeriesKeysIsRefusedByKey)
{
    // The run block as written before the electric series moved to
    // the shared "<key>.times/.values" codec.
    std::string path = testing::TempDir() + "plant_old_keys.ckpt";
    guard::CheckpointWriter w;
    w.section("plant.run");
    w.putToken("backend", "crac");
    w.putU64("next", 2);
    w.putVector("electric.t", {0.0, 300.0});
    w.putVector("electric.v", {1.0, 2.0});
    guard::writeCheckpointFile(path, w.finish());

    PlantConfig config;
    config.checkpoint.path = path;
    try {
        runPlant(dayScenario(), config);
        ADD_FAILURE() << "old checkpoint was accepted";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("'electric.times'"), std::string::npos)
            << msg;
    }
    std::remove(path.c_str());
}

TEST(CompareBackends, BitIdenticalAtOneAndEightThreads)
{
    auto scenario = dayScenario();
    scenario.faults = stressSchedule();
    PlantConfig config;
    std::vector<BackendKind> kinds = {
        BackendKind::Crac, BackendKind::HotWater,
        BackendKind::Economizer, BackendKind::Mpc};

    exec::setGlobalThreads(1);
    auto serial = compareBackends(scenario, config, kinds);
    exec::setGlobalThreads(8);
    auto parallel = compareBackends(scenario, config, kinds);
    exec::setGlobalThreads(exec::defaultThreadCount());

    ASSERT_EQ(serial.arms.size(), parallel.arms.size());
    for (std::size_t i = 0; i < serial.arms.size(); ++i)
        expectSameResult(serial.arms[i], parallel.arms[i]);
    EXPECT_EQ(serial.mpcVsCracSaving, parallel.mpcVsCracSaving);
}

TEST(CompareBackends, PodRaceFinishesInsideTheWallBudget)
{
    // Four backends over a 16-server RD330 pod with paper wax and
    // one day of the Google trace, at one thread.  It takes well
    // under a second; the 120 s budget only catches a runaway.
    workload::GoogleTraceParams tp;
    tp.durationS = units::days(1.0);
    PlantScenario scenario;
    scenario.loadW = clusterCoolingLoad(
        server::rd330Spec(), server::WaxConfig::paper(), 16,
        workload::makeGoogleTrace(tp));
    scenario.serverCount = 16;

    exec::setGlobalThreads(1);
    const auto t0 = std::chrono::steady_clock::now();
    auto cmp = compareBackends(
        scenario, PlantConfig{},
        {BackendKind::Crac, BackendKind::HotWater,
         BackendKind::Economizer, BackendKind::Mpc});
    const double wall_s = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    exec::setGlobalThreads(exec::defaultThreadCount());

    EXPECT_EQ(cmp.arms.size(), 4u);
    EXPECT_LE(wall_s, 120.0);
}

TEST(CompareBackends, RejectsEmptyKindList)
{
    PlantConfig config;
    EXPECT_THROW(compareBackends(dayScenario(), config, {}),
                 FatalError);
}

} // namespace
} // namespace plant
} // namespace tts

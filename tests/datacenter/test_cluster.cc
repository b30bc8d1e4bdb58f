/** @file Tests for the cluster scale-out model. */

#include <gtest/gtest.h>

#include "datacenter/cluster.hh"
#include "util/error.hh"
#include "util/units.hh"
#include "workload/google_trace.hh"

namespace tts {
namespace datacenter {
namespace {

using server::WaxConfig;

/** One fast day at coarse resolution for unit tests. */
workload::WorkloadTrace
fastTrace()
{
    workload::GoogleTraceParams p;
    p.durationS = units::days(1.0);
    p.sampleIntervalS = 900.0;
    return workload::makeGoogleTrace(p);
}

ClusterRunOptions
fastOptions()
{
    ClusterRunOptions o;
    o.controlIntervalS = 900.0;
    o.thermalStepS = 15.0;
    o.warmupDays = 1;
    return o;
}

TEST(Cluster, PeakWallPowerScalesWithCount)
{
    Cluster c(server::rd330Spec(), WaxConfig::none(), 100);
    EXPECT_NEAR(c.peakWallPower(), 100.0 * 185.0, 100.0);
    EXPECT_EQ(c.serverCount(), 100u);
}

TEST(Cluster, DefaultSizeMatchesPaper)
{
    Cluster c(server::rd330Spec(), WaxConfig::none());
    EXPECT_EQ(c.serverCount(), 1008u);  // The paper's cluster size.
}

TEST(Cluster, CoolingLoadTracksTrace)
{
    Cluster c(server::rd330Spec(), WaxConfig::none(), 1008);
    auto r = c.run(fastTrace(), fastOptions());
    // Peak cooling near mid-day, trough at night.
    EXPECT_GT(r.coolingLoadW.at(units::hours(14.0)),
              r.coolingLoadW.at(units::hours(4.0)));
    // Magnitude: between idle and peak cluster wall power.
    EXPECT_GT(r.peakCoolingLoad(), 1008.0 * 90.0);
    EXPECT_LT(r.peakCoolingLoad(), 1008.0 * 186.0);
}

TEST(Cluster, StockClusterCoolingMatchesItPower)
{
    // Without wax, storage effects are small: cooling stays within
    // a few percent of IT power everywhere.
    Cluster c(server::rd330Spec(), WaxConfig::none(), 1008);
    auto r = c.run(fastTrace(), fastOptions());
    for (std::size_t i = 0; i < r.coolingLoadW.size(); i += 8) {
        double cool = r.coolingLoadW.values()[i];
        double it = r.itPowerW.values()[i];
        EXPECT_NEAR(cool, it, 0.08 * it);
    }
}

TEST(Cluster, WaxReducesPeakCoolingLoad)
{
    Cluster base(server::rd330Spec(), WaxConfig::none(), 1008);
    Cluster waxed(server::rd330Spec(), WaxConfig::paper(), 1008);
    auto rb = base.run(fastTrace(), fastOptions());
    auto rw = waxed.run(fastTrace(), fastOptions());
    EXPECT_LT(rw.peakCoolingLoad(), rb.peakCoolingLoad());
}

TEST(Cluster, WaxMeltsDuringPeakFreezesAtNight)
{
    Cluster c(server::rd330Spec(), WaxConfig::paper(), 1008);
    auto r = c.run(fastTrace(), fastOptions());
    EXPECT_GT(r.waxMeltFraction.max(), 0.5);
    // By the pre-dawn trough the charge is solid again.
    EXPECT_LT(r.waxMeltFraction.at(units::hours(8.0)), 0.1);
}

TEST(Cluster, EnergyConservedOverCycle)
{
    // Integrated cooling equals integrated IT power up to the change
    // in stored energy (wax + server mass).
    Cluster c(server::rd330Spec(), WaxConfig::paper(), 1008);
    auto r = c.run(fastTrace(), fastOptions());
    double t0 = r.coolingLoadW.startTime();
    double t1 = r.coolingLoadW.endTime();
    double cooled = r.coolingLoadW.integral(t0, t1);
    double supplied = r.itPowerW.integral(t0, t1);
    EXPECT_NEAR(cooled, supplied, 0.02 * supplied);
}

TEST(Cluster, ThroughputFollowsUtilization)
{
    Cluster c(server::rd330Spec(), WaxConfig::none(), 1008);
    auto trace = fastTrace();
    auto r = c.run(trace, fastOptions());
    EXPECT_NEAR(r.throughput.max(), trace.peak(), 0.02);
}

TEST(Cluster, RecordsDiagnosticsSeries)
{
    Cluster c(server::x4470Spec(), WaxConfig::paper(), 100);
    auto r = c.run(fastTrace(), fastOptions());
    EXPECT_GT(r.outletTempC.size(), 10u);
    EXPECT_GT(r.waxBayTempC.max(), r.waxBayTempC.min() + 3.0);
    EXPECT_GT(r.waxStoredJ.max(), 0.0);
}

TEST(Cluster, SolverStepConverged)
{
    // Peak cooling must be insensitive to halving the steps: the
    // evidence that the production grid is numerically converged.
    Cluster coarse(server::rd330Spec(), WaxConfig::paper(), 1008);
    Cluster fine(server::rd330Spec(), WaxConfig::paper(), 1008);
    ClusterRunOptions a = fastOptions();
    ClusterRunOptions b = fastOptions();
    b.controlIntervalS = a.controlIntervalS / 2.0;
    b.thermalStepS = a.thermalStepS / 3.0;
    double pa = coarse.run(fastTrace(), a).peakCoolingLoad();
    double pb = fine.run(fastTrace(), b).peakCoolingLoad();
    EXPECT_NEAR(pa, pb, 0.005 * pa);
}

TEST(Cluster, RejectsBadOptions)
{
    Cluster c(server::rd330Spec(), WaxConfig::none(), 10);
    ClusterRunOptions o;
    o.controlIntervalS = 0.0;
    EXPECT_THROW(c.run(fastTrace(), o), FatalError);
    EXPECT_THROW(Cluster(server::rd330Spec(), WaxConfig::none(), 0),
                 FatalError);
}

} // namespace
} // namespace datacenter
} // namespace tts

/** @file Tests for the melting-temperature optimizer. */

#include <gtest/gtest.h>

#include "util/error.hh"
#include "core/melting_optimizer.hh"
#include "exec/parallel.hh"
#include "util/units.hh"
#include "workload/google_trace.hh"

namespace tts {
namespace core {
namespace {

workload::WorkloadTrace
fastTrace()
{
    workload::GoogleTraceParams p;
    p.durationS = units::days(1.0);
    p.sampleIntervalS = 900.0;
    return workload::makeGoogleTrace(p);
}

MeltOptimizerOptions
fastOptions(double step = 2.0)
{
    MeltOptimizerOptions o;
    o.stepC = step;
    o.minC = 44.0;
    o.maxC = 58.0;
    o.study.cluster.controlIntervalS = 900.0;
    o.study.cluster.thermalStepS = 15.0;
    o.study.cluster.warmupDays = 1;
    return o;
}

TEST(MeltOptimizer, FindsAReduction)
{
    auto opt = optimizeMeltingTemp(server::rd330Spec(), fastTrace(),
                                   pcm::commercialParaffin(),
                                   fastOptions());
    EXPECT_GT(opt.peakReduction, 0.03);
    EXPECT_GE(opt.meltTempC, 44.0);
    EXPECT_LE(opt.meltTempC, 58.0);
}

TEST(MeltOptimizer, SweepCoversRange)
{
    auto opt = optimizeMeltingTemp(server::rd330Spec(), fastTrace(),
                                   pcm::commercialParaffin(),
                                   fastOptions());
    EXPECT_EQ(opt.sweep.size(), 8u);  // 44..58 step 2.
    EXPECT_DOUBLE_EQ(opt.sweep.front().meltTempC, 44.0);
    EXPECT_DOUBLE_EQ(opt.sweep.back().meltTempC, 58.0);
}

TEST(MeltOptimizer, OptimumIsSweepMinimum)
{
    auto opt = optimizeMeltingTemp(server::rd330Spec(), fastTrace(),
                                   pcm::commercialParaffin(),
                                   fastOptions());
    for (const auto &pt : opt.sweep)
        EXPECT_GE(pt.peakCoolingLoadW + 1e-6,
                  (1.0 - opt.peakReduction) *
                      opt.sweep.front().peakCoolingLoadW /
                      (1.0 - opt.sweep.front().peakReduction) *
                      (1.0 - 1e-12))
            << "non-minimal optimum";
    // Direct check: reduction at the reported optimum equals the
    // best in the sweep.
    double best = 0.0;
    for (const auto &pt : opt.sweep)
        best = std::max(best, pt.peakReduction);
    EXPECT_NEAR(opt.peakReduction, best, 1e-12);
}

TEST(MeltOptimizer, OnsetNearSeventyFivePercentLoad)
{
    // The paper: "the best wax typically begins to melt when a
    // server exceeds 75 % load."
    auto opt = optimizeMeltingTemp(server::rd330Spec(), fastTrace(),
                                   pcm::commercialParaffin(),
                                   fastOptions(1.0));
    double onset = -1.0;
    for (const auto &pt : opt.sweep) {
        if (pt.meltTempC == opt.meltTempC)
            onset = pt.meltOnsetUtilization;
    }
    EXPECT_GT(onset, 0.55);
    EXPECT_LT(onset, 0.95);
}

TEST(MeltOptimizer, SweepIsBitIdenticalAtOneAndEightThreads)
{
    // Fifteen candidates over eight workers: scheduling decides when
    // a point runs, never what it computes or where it lands.
    auto sweepAt = [](std::size_t threads) {
        exec::setGlobalThreads(threads);
        auto opt = optimizeMeltingTemp(server::rd330Spec(),
                                       fastTrace(),
                                       pcm::commercialParaffin(),
                                       fastOptions(1.0));
        exec::setGlobalThreads(exec::defaultThreadCount());
        return opt;
    };
    const MeltOptimum serial = sweepAt(1);
    const MeltOptimum wide = sweepAt(8);

    EXPECT_EQ(serial.meltTempC, wide.meltTempC);
    EXPECT_EQ(serial.peakReduction, wide.peakReduction);
    ASSERT_EQ(serial.sweep.size(), 15u);
    ASSERT_EQ(wide.sweep.size(), serial.sweep.size());
    for (std::size_t i = 0; i < serial.sweep.size(); ++i) {
        const MeltSweepPoint &a = serial.sweep[i];
        const MeltSweepPoint &b = wide.sweep[i];
        EXPECT_EQ(a.meltTempC, b.meltTempC) << i;
        EXPECT_EQ(a.peakCoolingLoadW, b.peakCoolingLoadW) << i;
        EXPECT_EQ(a.peakReduction, b.peakReduction) << i;
        EXPECT_EQ(a.meltOnsetUtilization, b.meltOnsetUtilization)
            << i;
    }
}

TEST(MeltOptimizer, RespectsMaterialRange)
{
    // Eicosane melts at exactly 36.6 C; the sweep window 44-58 C
    // does not intersect it.
    EXPECT_THROW(
        optimizeMeltingTemp(server::rd330Spec(), fastTrace(),
                            pcm::eicosane(), fastOptions()),
        FatalError);
}

TEST(MeltOptimizer, RejectsBadStep)
{
    auto o = fastOptions();
    o.stepC = 0.0;
    EXPECT_THROW(optimizeMeltingTemp(server::rd330Spec(),
                                     fastTrace(),
                                     pcm::commercialParaffin(), o),
                 FatalError);
}

} // namespace
} // namespace core
} // namespace tts

/**
 * @file
 * Reference tests for fleet stepping.
 *
 * The order of one control step: apply due events, set each row's
 * load, read it out, advance it, and take one last read-out at the
 * horizon with no advance.  A one-server fleet with no aliased row
 * must match a single ServerModel stepped by hand in that order, bit
 * for bit: the fold adds each read-out to zero, which is exact.
 *
 * The slice: run() advances a whole checkpoint slice per shard
 * region, step() one control step.  Both must give the same run bit
 * for bit, with events that land inside a slice.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cache/fingerprint.hh"
#include "exec/parallel.hh"
#include "fleet/arena.hh"
#include "fleet/fleet.hh"
#include "server/server_model.hh"
#include "server/server_spec.hh"
#include "util/time_series.hh"
#include "workload/trace.hh"

namespace tts {
namespace fleet {
namespace {

TEST(FleetStep, OneServerFleetMatchesAHandSteppedServer)
{
    FleetConfig cfg;
    cfg.run.serverCount = 1;
    cfg.run.utilization = 0.7;
    // Not a whole number of control intervals: the last step is
    // short.
    cfg.durationS = 3.0 * 3600.0 + 100.0;
    cfg.controlIntervalS = 300.0;
    cfg.thermalStepS = 60.0;
    cfg.dedupe = false;
    // The fan fails exactly at the horizon, so only the horizon
    // sample's own read-out sees it.
    cfg.extraEvents = {
        {0.0, 0, PerturbKind::InletDrift, 2.0},
        {1800.0, 0, PerturbKind::UtilizationDelta, 0.25},
        {cfg.durationS, 0, PerturbKind::FanFailure, 0.0},
    };
    const server::ServerSpec spec = server::rd330Spec();

    FleetSim sim(spec, workload::WorkloadTrace{}, cfg);
    ASSERT_TRUE(sim.isMaterialized(0));
    ASSERT_TRUE(sim.run());
    FleetResult got = sim.take();

    ArchetypeArena arena(spec, cfg.run.waxConfig(), 0, 1,
                         cfg.run.utilization);
    std::unique_ptr<server::ServerModel> m = arena.cloneBaseline();
    ASSERT_TRUE(m->hasWax());
    RowPerturbState pert;
    std::size_t next = 0;
    TimeSeries cooling, it_power, melt;
    double peak_cooling = 0.0;
    double peak_it = 0.0;
    double energy = 0.0;
    // Apply the due events, set the load, read out; returns the
    // cooling read-out.
    auto sample = [&](double t) {
        for (; next < cfg.extraEvents.size() &&
               cfg.extraEvents[next].timeS <= t;
             ++next) {
            const PerturbEvent &e = cfg.extraEvents[next];
            switch (e.kind) {
              case PerturbKind::UtilizationDelta:
                pert.utilDelta += e.value;
                break;
              case PerturbKind::InletDrift:
                pert.inletDeltaC += e.value;
                break;
              case PerturbKind::FanFailure:
                pert.fanPinned = true;
                break;
            }
        }
        m->setLoad(
            std::clamp(cfg.run.utilization + pert.utilDelta, 0.0, 1.0),
            pert.fanPinned ? spec.cpu.minFreqGHz : 0.0);
        m->network().setInletTemp(inletTempC + pert.inletDeltaC);
        double c = m->coolingLoad();
        double w = m->wallPower();
        cooling.append(t, c);
        it_power.append(t, w);
        melt.append(t, m->waxMeltFraction());
        peak_cooling = std::max(peak_cooling, c);
        peak_it = std::max(peak_it, w);
        return c;
    };
    double t = 0.0;
    while (t < cfg.durationS - 1e-9) {
        double dt = std::min(cfg.controlIntervalS, cfg.durationS - t);
        energy += sample(t) * dt;
        m->advance(dt, cfg.thermalStepS);
        t += dt;
    }
    sample(cfg.durationS);
    ASSERT_EQ(next, cfg.extraEvents.size());

    // The wax melted, and the fan failure lowered the horizon
    // sample's wall power.
    EXPECT_GT(melt.max(), 0.0);
    EXPECT_LT(it_power.values().back(),
              it_power.values()[it_power.size() - 2]);

    EXPECT_EQ(got.coolingLoadW.times(), cooling.times());
    EXPECT_EQ(got.coolingLoadW.values(), cooling.values());
    EXPECT_EQ(got.itPowerW.values(), it_power.values());
    EXPECT_EQ(got.meltFraction.values(), melt.values());
    EXPECT_EQ(got.peakCoolingW, peak_cooling);
    EXPECT_EQ(got.peakItPowerW, peak_it);
    EXPECT_EQ(got.coolingEnergyJ, energy);
    EXPECT_EQ(got.stateDigest,
              digestServerState(
                  *m, pert,
                  digestDouble(cache::kFnvOffsetBasis, cfg.durationS)));
}

/**
 * A mixed fleet whose hand-written events land inside the default
 * 900 s checkpoint slices, on top of a generated schedule.
 */
FleetConfig
midSliceConfig()
{
    FleetConfig cfg;
    cfg.run.serverCount = 48;
    cfg.run.utilization = 0.6;
    cfg.durationS = 4.0 * 3600.0;
    cfg.controlIntervalS = 60.0;
    cfg.thermalStepS = 15.0;
    cfg.mixedPlatforms = true;
    cfg.perturb.eventsPerServerDay = 2.0;
    cfg.extraEvents = {
        // Due on the 1260 s step, the 7th of the 900-1800 s slice:
        // server 7 is cloned from its baseline there...
        {1234.0, 7, PerturbKind::UtilizationDelta, 0.3},
        // ... and hit again on the 1500 s step of the same slice.
        {1500.0, 7, PerturbKind::InletDrift, 1.5},
        // Due on the 2040 s step, inside the 1800-2700 s slice.
        {2000.0, 30, PerturbKind::FanFailure, 0.0},
        // Due at the horizon, which closes the last slice.
        {cfg.durationS, 40, PerturbKind::UtilizationDelta, -0.2},
    };
    return cfg;
}

TEST(FleetStep, SliceMatchesSingleStepsWithMidSliceEvents)
{
    const FleetConfig cfg = midSliceConfig();
    const server::ServerSpec spec = server::rd330Spec();
    for (std::size_t threads : {1, 8}) {
        SCOPED_TRACE(threads);
        exec::setGlobalThreads(threads);

        FleetSim stepped(spec, workload::WorkloadTrace{}, cfg);
        while (!stepped.done()) {
            const double t = stepped.timeS();
            stepped.step();
            // The events really land where the comments say.
            if (t == 1200.0) {
                EXPECT_FALSE(stepped.isMaterialized(7));
            }
            if (t == 1260.0) {
                EXPECT_TRUE(stepped.isMaterialized(7));
            }
            if (t == 1440.0) {
                EXPECT_EQ(stepped.serverPerturbState(7).inletDeltaC,
                          0.0);
            }
            if (!stepped.done()) {
                EXPECT_FALSE(stepped.isMaterialized(40));
            }
        }
        EXPECT_EQ(stepped.serverPerturbState(7).inletDeltaC, 1.5);
        EXPECT_TRUE(stepped.serverPerturbState(30).fanPinned);
        EXPECT_TRUE(stepped.isMaterialized(40));
        FleetResult want = stepped.take();
        ASSERT_GT(want.materializedRows, 3u);

        FleetSim sliced(spec, workload::WorkloadTrace{}, cfg);
        ASSERT_TRUE(sliced.run());
        FleetResult got = sliced.take();

        EXPECT_EQ(got.coolingLoadW.times(), want.coolingLoadW.times());
        EXPECT_EQ(got.coolingLoadW.values(),
                  want.coolingLoadW.values());
        EXPECT_EQ(got.itPowerW.values(), want.itPowerW.values());
        EXPECT_EQ(got.meltFraction.values(), want.meltFraction.values());
        EXPECT_EQ(got.peakCoolingW, want.peakCoolingW);
        EXPECT_EQ(got.peakItPowerW, want.peakItPowerW);
        EXPECT_EQ(got.coolingEnergyJ, want.coolingEnergyJ);
        EXPECT_EQ(got.rowSteps, want.rowSteps);
        EXPECT_EQ(got.serverSteps, want.serverSteps);
        EXPECT_EQ(got.materializedRows, want.materializedRows);
        EXPECT_EQ(got.eventsApplied, want.eventsApplied);
        EXPECT_EQ(got.stateDigest, want.stateDigest);
    }
    exec::setGlobalThreads(1);
}

} // namespace
} // namespace fleet
} // namespace tts

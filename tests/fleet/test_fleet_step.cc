/**
 * @file
 * Reference test for the order of one fleet control step: apply due
 * events, set each row's load, read it out, advance it, and take one
 * last read-out at the horizon with no advance.  A one-server fleet
 * with no aliased row must match a single ServerModel stepped by hand
 * in that order, bit for bit: the fold adds each read-out to zero,
 * which is exact.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cache/fingerprint.hh"
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

} // namespace
} // namespace fleet
} // namespace tts

/**
 * @file
 * Fleet kill-and-resume at warehouse scale: a 40k-server transient
 * interrupted every half hour of simulated time (fresh FleetSim per
 * chunk, simulating a new process restoring the checkpoint file)
 * must finish bit-identical to an uninterrupted run, at 1 and 8
 * worker threads.  Mirrors tests/guard/test_checkpoint_resume.cc for
 * the resilience runner.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "exec/parallel.hh"
#include "fleet/fleet.hh"
#include "guard/checkpoint.hh"
#include "server/server_spec.hh"
#include "util/error.hh"
#include "workload/trace.hh"

namespace tts {
namespace fleet {
namespace {

const char *kCkptPath = "fleet_resume_test.ckpt";

FleetConfig
warehouseConfig()
{
    FleetConfig cfg;
    cfg.run.serverCount = 40320;
    cfg.run.utilization = 0.7;
    cfg.durationS = 2.0 * 3600.0;
    cfg.controlIntervalS = 300.0;
    cfg.thermalStepS = 60.0;
    // The facility's three platforms, one arena each.
    cfg.mixedPlatforms = true;
    // ~350 expected perturbed rows: enough to exercise row
    // save/restore without drowning the test in integration time.
    cfg.perturb.eventsPerServerDay = 0.1;
    return cfg;
}

FleetResult
uninterruptedRun(std::size_t threads)
{
    exec::setGlobalThreads(threads);
    FleetSim sim(server::rd330Spec(), workload::WorkloadTrace{},
                 warehouseConfig());
    EXPECT_TRUE(sim.run());
    FleetResult r = sim.take();
    exec::setGlobalThreads(1);
    return r;
}

/** Run in ~30-simulated-minute chunks, new FleetSim per chunk. */
FleetResult
chunkedRun(std::size_t threads)
{
    std::remove(kCkptPath);
    exec::setGlobalThreads(threads);
    guard::CheckpointPolicy policy;
    policy.path = kCkptPath;
    policy.checkpointEveryS = 900.0;
    policy.stopAfterS = 1800.0;
    FleetResult out;
    int chunks = 0;
    for (;;) {
        FleetSim sim(server::rd330Spec(), workload::WorkloadTrace{},
                     warehouseConfig());
        ++chunks;
        EXPECT_LE(chunks, 16) << "resume loop not converging";
        if (sim.run(policy)) {
            out = sim.take();
            break;
        }
    }
    EXPECT_GE(chunks, 3) << "kill interval never triggered";
    exec::setGlobalThreads(1);
    std::remove(kCkptPath);
    return out;
}

TEST(FleetCheckpoint, WarehouseResumeIsBitIdentical)
{
    FleetResult ref = uninterruptedRun(1);
    ASSERT_EQ(ref.serverCount, 40320u);
    ASSERT_GT(ref.materializedRows, 0u);
    ASSERT_GT(ref.dedupeFactor(), 10.0);

    FleetResult serial = chunkedRun(1);
    EXPECT_EQ(serial.stateDigest, ref.stateDigest);
    EXPECT_EQ(serial.materializedRows, ref.materializedRows);
    EXPECT_EQ(serial.eventsApplied, ref.eventsApplied);
    EXPECT_EQ(serial.coolingLoadW.times(), ref.coolingLoadW.times());
    EXPECT_EQ(serial.coolingLoadW.values(),
              ref.coolingLoadW.values());
    EXPECT_EQ(serial.itPowerW.values(), ref.itPowerW.values());
    EXPECT_EQ(serial.meltFraction.values(),
              ref.meltFraction.values());
    EXPECT_EQ(serial.peakCoolingW, ref.peakCoolingW);
    EXPECT_EQ(serial.coolingEnergyJ, ref.coolingEnergyJ);

    FleetResult wide = chunkedRun(8);
    EXPECT_EQ(wide.stateDigest, ref.stateDigest);
    EXPECT_EQ(wide.coolingLoadW.values(), ref.coolingLoadW.values());
    EXPECT_EQ(wide.coolingEnergyJ, ref.coolingEnergyJ);
}

TEST(FleetCheckpoint, RestoreRejectsMismatchedConfiguration)
{
    std::remove(kCkptPath);
    FleetConfig cfg = warehouseConfig();
    cfg.run.serverCount = 64;
    cfg.perturb.eventsPerServerDay = 0.0;
    FleetSim sim(server::rd330Spec(), workload::WorkloadTrace{},
                 cfg);
    sim.step();
    sim.save(kCkptPath);

    FleetConfig other = cfg;
    other.run.serverCount = 65;
    FleetSim bigger(server::rd330Spec(), workload::WorkloadTrace{},
                    other);
    EXPECT_THROW(bigger.restore(kCkptPath), Error);

    FleetConfig reseeded = cfg;
    reseeded.seed ^= 1;
    FleetSim wrong_seed(server::rd330Spec(),
                        workload::WorkloadTrace{}, reseeded);
    EXPECT_THROW(wrong_seed.restore(kCkptPath), Error);
    std::remove(kCkptPath);
}

TEST(FleetCheckpoint, SaveRestoreRoundTripsMidRun)
{
    std::remove(kCkptPath);
    FleetConfig cfg = warehouseConfig();
    cfg.run.serverCount = 128;
    cfg.extraEvents = {
        {400.0, 17, PerturbKind::FanFailure, 0.0},
        {700.0, 90, PerturbKind::InletDrift, 3.0},
    };
    FleetSim a(server::rd330Spec(), workload::WorkloadTrace{}, cfg);
    for (int i = 0; i < 4; ++i)
        a.step();
    a.save(kCkptPath);

    FleetSim b(server::rd330Spec(), workload::WorkloadTrace{}, cfg);
    b.restore(kCkptPath);
    EXPECT_EQ(b.timeS(), a.timeS());
    EXPECT_EQ(b.materializedCount(), a.materializedCount());
    EXPECT_EQ(b.stateDigest(), a.stateDigest());

    while (!a.done())
        a.step();
    while (!b.done())
        b.step();
    EXPECT_EQ(b.stateDigest(), a.stateDigest());
    std::remove(kCkptPath);
}

TEST(FleetCheckpoint, NonPositiveIntervalIsRejected)
{
    FleetConfig cfg = warehouseConfig();
    cfg.run.serverCount = 64;
    for (double every : {0.0, -900.0}) {
        std::remove(kCkptPath);
        guard::CheckpointPolicy policy;
        policy.path = kCkptPath;
        policy.checkpointEveryS = every;
        FleetSim sim(server::rd330Spec(), workload::WorkloadTrace{},
                     cfg);
        try {
            sim.run(policy);
            ADD_FAILURE() << "interval " << every << " was accepted";
        } catch (const FatalError &e) {
            std::string msg = e.what();
            EXPECT_NE(msg.find("checkpointEveryS"), std::string::npos)
                << msg;
            char got[32];
            std::snprintf(got, sizeof(got), "(got %g)", every);
            EXPECT_NE(msg.find(got), std::string::npos) << msg;
        }
        EXPECT_EQ(sim.timeS(), 0.0);
    }
    std::remove(kCkptPath);
}

TEST(FleetCheckpoint, DigestCatchesAOneUlpNudgeAndSurvivesTheCodec)
{
    const RowPerturbState pert;
    server::ServerModel m(server::rd330Spec(),
                          server::WaxConfig::paper());
    m.setLoad(0.7);
    m.advance(600.0, 15.0);
    const std::uint64_t before = digestServerState(m, pert);

    std::vector<double> h = m.network().enthalpies();
    h[0] = std::nextafter(h[0], HUGE_VAL);
    m.network().setEnthalpies(h);
    const std::uint64_t nudged = digestServerState(m, pert);
    EXPECT_NE(nudged, before);

    guard::CheckpointWriter w;
    m.saveThermalState(w, "m");
    server::ServerModel back(server::rd330Spec(),
                             server::WaxConfig::paper());
    back.setLoad(0.7);  // The operating point is the caller's.
    guard::CheckpointReader r(w.finish(), "test");
    back.restoreThermalState(r, "m");
    r.expectEnd();
    EXPECT_EQ(digestServerState(back, pert), nudged);
}

} // namespace
} // namespace fleet
} // namespace tts

/**
 * @file
 * Fleet determinism matrix: a single-platform and a mixed
 * three-platform fleet, each run at every combination of {1, 4, 16}
 * pool threads x {1, 3, 8, 64} shards, must produce bit-identical
 * series, peaks, and state digests, the digest at every 900 s slice
 * boundary as well as at the end.  The contract holds because all
 * randomness is keyed per server (Rng::forStream) and aggregation
 * runs in canonical (arena, server) order - neither the pool width
 * nor the shard width appears anywhere in the arithmetic.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "exec/parallel.hh"
#include "fleet/fleet.hh"
#include "guard/resume.hh"
#include "server/server_model.hh"
#include "server/server_spec.hh"
#include "workload/trace.hh"

namespace tts {
namespace fleet {
namespace {

FleetConfig
matrixConfig(std::size_t shards, bool mixed = false)
{
    FleetConfig cfg;
    // The mixed fleet's arenas hold 34, 33 and 33 servers, so at
    // every width above one some shard range spans two arenas.
    cfg.run.serverCount = mixed ? 100 : 96;
    cfg.run.utilization = 0.6;
    cfg.durationS = 3.0 * 3600.0;
    cfg.controlIntervalS = 300.0;
    cfg.thermalStepS = 60.0;
    cfg.shardCount = shards;
    cfg.perturb.eventsPerServerDay = 6.0;
    cfg.mixedPlatforms = mixed;
    return cfg;
}

/** A matrix cell's outputs and its digest at every slice boundary. */
struct Cell
{
    FleetResult result;
    std::vector<std::uint64_t> sliceDigests;
};

/** Run after each slice, with its index, before its digest is taken. */
using AfterSlice = std::function<void(FleetSim &, std::size_t)>;

/**
 * Run one cell slice by slice, as run() does (900 s slices), and take
 * the state digest at every slice boundary.
 */
Cell
runCell(std::size_t threads, std::size_t shards, bool mixed,
        const AfterSlice &afterSlice = {})
{
    exec::setGlobalThreads(threads);
    FleetSim sim(server::rd330Spec(), workload::WorkloadTrace{},
                 matrixConfig(shards, mixed));
    Cell cell;
    while (!sim.done()) {
        sim.advance(guard::CheckpointPolicy{}.checkpointEveryS);
        if (afterSlice)
            afterSlice(sim, cell.sliceDigests.size());
        cell.sliceDigests.push_back(sim.stateDigest());
    }
    cell.result = sim.take();
    exec::setGlobalThreads(1);
    return cell;
}

void
expectSameSeries(const TimeSeries &a, const TimeSeries &b)
{
    EXPECT_EQ(a.times(), b.times());
    EXPECT_EQ(a.values(), b.values());
}

/** The thread-count digest check: same end state, bit for bit. */
testing::AssertionResult
sameDigest(const FleetResult &a, const FleetResult &b)
{
    if (a.stateDigest == b.stateDigest)
        return testing::AssertionSuccess();
    return testing::AssertionFailure()
        << std::hex << a.stateDigest << " != " << b.stateDigest;
}

/** The same state at every slice boundary, not only at the end. */
testing::AssertionResult
sameSliceDigests(const Cell &a, const Cell &b)
{
    if (a.sliceDigests.size() != b.sliceDigests.size())
        return testing::AssertionFailure()
            << a.sliceDigests.size() << " slices != "
            << b.sliceDigests.size();
    for (std::size_t k = 0; k < a.sliceDigests.size(); ++k)
        if (a.sliceDigests[k] != b.sliceDigests[k])
            return testing::AssertionFailure()
                << "slice " << k << ": " << std::hex << a.sliceDigests[k]
                << " != " << b.sliceDigests[k];
    return testing::AssertionSuccess();
}

/** Nudge the first materialized row's first enthalpy up one ulp. */
void
nudgeFirstRow(const FleetSim &sim)
{
    const ArchetypeRun *run = nullptr;
    for (const ArchetypeRun &r : sim.runs())
        if (!run && !r.rows().empty())
            run = &r;
    ASSERT_NE(run, nullptr);
    server::ServerModel &m = *run->rows().begin()->second.model;
    std::vector<double> h = m.network().enthalpies();
    h[0] = std::nextafter(h[0], HUGE_VAL);
    m.network().setEnthalpies(h);
}

TEST(FleetDeterminism, ThreadByShardMatrixIsBitIdentical)
{
    const std::vector<std::size_t> threads = {1, 4, 16};
    const std::vector<std::size_t> shards = {1, 3, 8, 64};

    for (bool mixed : {false, true}) {
        SCOPED_TRACE(mixed ? "mixed fleet" : "single-platform fleet");
        const Cell ref_cell = runCell(1, 1, mixed);
        const FleetResult &ref = ref_cell.result;
        ASSERT_GT(ref.eventsApplied, 0u);
        ASSERT_GT(ref.materializedRows, 0u);
        ASSERT_LT(ref.materializedRows, ref.serverCount);

        for (std::size_t t : threads) {
            for (std::size_t s : shards) {
                if (t == 1 && s == 1)
                    continue;
                SCOPED_TRACE("threads=" + std::to_string(t) +
                             " shards=" + std::to_string(s));
                const Cell cell = runCell(t, s, mixed);
                EXPECT_TRUE(sameSliceDigests(cell, ref_cell));
                const FleetResult &r = cell.result;
                EXPECT_TRUE(sameDigest(r, ref));
                EXPECT_EQ(r.materializedRows, ref.materializedRows);
                EXPECT_EQ(r.eventsApplied, ref.eventsApplied);
                EXPECT_EQ(r.peakCoolingW, ref.peakCoolingW);
                EXPECT_EQ(r.peakItPowerW, ref.peakItPowerW);
                EXPECT_EQ(r.coolingEnergyJ, ref.coolingEnergyJ);
                expectSameSeries(r.coolingLoadW, ref.coolingLoadW);
                expectSameSeries(r.itPowerW, ref.itPowerW);
                expectSameSeries(r.meltFraction, ref.meltFraction);
            }
        }
    }
}

TEST(FleetDeterminism, OneUlpRowNudgeFailsTheThreadDigestCheck)
{
    // The digest check above must be able to fail: nudge one
    // materialized row's enthalpy by one ulp in the 4-thread run.
    // The digest is an end-state oracle, so the nudge lands after the
    // last step: the stiff thermal network damps a one-ulp difference
    // out within 1-58 control steps, so a nudge hours before the
    // horizon leaves the end state (and this 3 h run's series) bit for
    // bit unchanged.
    FleetResult ref = runCell(1, 8, true).result;

    exec::setGlobalThreads(4);
    FleetSim sim(server::rd330Spec(), workload::WorkloadTrace{},
                 matrixConfig(8, true));
    ASSERT_TRUE(sim.run());
    nudgeFirstRow(sim);
    FleetResult nudged = sim.take();
    exec::setGlobalThreads(1);

    EXPECT_FALSE(sameDigest(nudged, ref));
    // Only the nudge differs: the unnudged 4-thread run passes.
    EXPECT_TRUE(sameDigest(runCell(4, 8, true).result, ref));
}

TEST(FleetDeterminism, MidRunRowNudgeFailsTheSliceDigestCheck)
{
    // The slice digests must see a divergence that the end-state
    // checks cannot: a one-ulp nudge one hour into the 3 h run, which
    // the thermal network damps out long before the horizon.
    constexpr std::size_t nudge_slice = 3; // 1 h of the 3 h run
    const Cell ref = runCell(1, 8, true);
    const Cell nudged =
        runCell(4, 8, true, [](FleetSim &sim, std::size_t slice) {
            if (slice == nudge_slice)
                nudgeFirstRow(sim);
        });

    EXPECT_FALSE(sameSliceDigests(nudged, ref));
    // Every end-state check still passes on the nudged run.
    EXPECT_TRUE(sameDigest(nudged.result, ref.result));
    EXPECT_EQ(nudged.result.peakCoolingW, ref.result.peakCoolingW);
    EXPECT_EQ(nudged.result.coolingEnergyJ, ref.result.coolingEnergyJ);
    expectSameSeries(nudged.result.coolingLoadW, ref.result.coolingLoadW);
    expectSameSeries(nudged.result.meltFraction, ref.result.meltFraction);
    // Only the nudge differs: the unnudged 4-thread run passes.
    EXPECT_TRUE(sameSliceDigests(runCell(4, 8, true), ref));
}

TEST(FleetDeterminism, RepeatedRunIsBitIdentical)
{
    FleetResult a = runCell(4, 8, false).result;
    FleetResult b = runCell(4, 8, false).result;
    EXPECT_EQ(a.stateDigest, b.stateDigest);
    expectSameSeries(a.coolingLoadW, b.coolingLoadW);
}

TEST(FleetDeterminism, PerturbationScheduleIsShardInvariant)
{
    // The schedule is drawn before stepping from per-server
    // sub-streams; two sims with different shard widths must see the
    // exact same event list.
    FleetSim a(server::rd330Spec(), workload::WorkloadTrace{},
               matrixConfig(1));
    FleetSim b(server::rd330Spec(), workload::WorkloadTrace{},
               matrixConfig(64));
    ASSERT_EQ(a.events().size(), b.events().size());
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        EXPECT_EQ(a.events()[i].timeS, b.events()[i].timeS);
        EXPECT_EQ(a.events()[i].server, b.events()[i].server);
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
        EXPECT_EQ(a.events()[i].value, b.events()[i].value);
    }
}

} // namespace
} // namespace fleet
} // namespace tts

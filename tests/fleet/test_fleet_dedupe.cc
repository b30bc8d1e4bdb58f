/**
 * @file
 * Archetype-dedupe property tests.
 *
 * The dedupe bet is that an unperturbed server is bit-identical to
 * its arena baseline *forever*, so aliasing it is exact.  These tests
 * pin the property from both sides: a gratuitously materialized row
 * stays bit-identical to the baseline through a whole run, and every
 * perturbation kind forces materialization and genuine divergence.
 * The dedupe path is also cross-checked against the naive
 * every-row-private reference path.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "fleet/fleet.hh"
#include "server/server_spec.hh"
#include "workload/trace.hh"

namespace tts {
namespace fleet {
namespace {

FleetConfig
quietConfig(std::size_t servers = 48)
{
    FleetConfig cfg;
    cfg.run.serverCount = servers;
    cfg.run.utilization = 0.7;
    cfg.durationS = 2.0 * 3600.0;
    cfg.controlIntervalS = 300.0;
    cfg.thermalStepS = 60.0;
    cfg.perturb.eventsPerServerDay = 0.0;
    return cfg;
}

/**
 * The leverage bar of a quiet fleet: no row materialized, no event
 * applied, and every logical server integrating through the one
 * baseline row.
 */
testing::AssertionResult
fullyAliased(const FleetResult &r)
{
    if (r.materializedRows != 0)
        return testing::AssertionFailure()
            << r.materializedRows << " rows materialized";
    if (r.eventsApplied != 0)
        return testing::AssertionFailure()
            << r.eventsApplied << " events applied";
    double want = static_cast<double>(r.serverCount);
    if (std::abs(r.dedupeFactor() - want) > 1e-9)
        return testing::AssertionFailure()
            << "dedupe factor " << r.dedupeFactor() << ", want " << want;
    return testing::AssertionSuccess();
}

TEST(FleetDedupe, QuietFleetStaysFullyAliased)
{
    FleetSim sim(server::rd330Spec(), workload::WorkloadTrace{},
                 quietConfig());
    ASSERT_TRUE(sim.run());
    FleetResult r = sim.take();
    // 48 logical servers integrate as one baseline row.
    EXPECT_EQ(r.serverCount, 48u);
    EXPECT_TRUE(fullyAliased(r));
}

TEST(FleetDedupe, NaiveRunFailsTheLeverageBar)
{
    // The bar above must be able to fail: the same quiet fleet with
    // dedupe off integrates every server privately.
    FleetConfig cfg = quietConfig();
    cfg.dedupe = false;
    FleetSim sim(server::rd330Spec(), workload::WorkloadTrace{}, cfg);
    ASSERT_TRUE(sim.run());
    EXPECT_FALSE(fullyAliased(sim.take()));
}

TEST(FleetDedupe, MaterializedCloneStaysBitIdenticalToBaseline)
{
    FleetSim aliased(server::rd330Spec(), workload::WorkloadTrace{},
                     quietConfig());
    FleetSim cloned(server::rd330Spec(), workload::WorkloadTrace{},
                    quietConfig());
    cloned.materializeForTest(5);
    EXPECT_TRUE(cloned.isMaterialized(5));
    while (!aliased.done())
        aliased.step();
    while (!cloned.done())
        cloned.step();
    // The private row advanced through its own integrator, the
    // aliased rows through the shared baseline - still equal.
    EXPECT_EQ(cloned.serverDigest(5), cloned.serverDigest(4));
    EXPECT_EQ(cloned.stateDigest(), aliased.stateDigest());
    EXPECT_EQ(cloned.materializedCount(), 1u);
}

TEST(FleetDedupe, EveryPerturbationKindForcesDivergence)
{
    FleetConfig cfg = quietConfig();
    cfg.extraEvents = {
        {600.0, 3, PerturbKind::UtilizationDelta, 0.2},
        {600.0, 7, PerturbKind::InletDrift, 4.0},
        {600.0, 11, PerturbKind::FanFailure, 0.0},
    };
    FleetSim sim(server::rd330Spec(), workload::WorkloadTrace{},
                 cfg);
    while (!sim.done())
        sim.step();

    EXPECT_EQ(sim.materializedCount(), 3u);
    EXPECT_EQ(sim.eventsApplied(), 3u);
    std::uint64_t baseline_digest = sim.serverDigest(0);
    for (std::uint32_t s : {3u, 7u, 11u}) {
        SCOPED_TRACE("server " + std::to_string(s));
        EXPECT_TRUE(sim.isMaterialized(s));
        EXPECT_NE(sim.serverDigest(s), baseline_digest);
        EXPECT_FALSE(sim.serverPerturbState(s).isBaseline());
    }
    EXPECT_FALSE(sim.isMaterialized(4));
    EXPECT_EQ(sim.serverPerturbState(3).utilDelta, 0.2);
    EXPECT_EQ(sim.serverPerturbState(7).inletDeltaC, 4.0);
    EXPECT_TRUE(sim.serverPerturbState(11).fanPinned);
    // The fan-failed server runs pinned to the DVFS floor.
    EXPECT_EQ(sim.serverView(11).frequency(),
              server::rd330Spec().cpu.minFreqGHz);
}

TEST(FleetDedupe, DedupeMatchesNaivePerServerReference)
{
    FleetConfig cfg = quietConfig(32);
    cfg.perturb.eventsPerServerDay = 4.0;
    cfg.extraEvents = {
        {900.0, 2, PerturbKind::UtilizationDelta, -0.15},
        {1800.0, 30, PerturbKind::FanFailure, 0.0},
    };

    FleetConfig naive_cfg = cfg;
    naive_cfg.dedupe = false;

    FleetSim dedupe(server::rd330Spec(), workload::WorkloadTrace{},
                    cfg);
    FleetSim naive(server::rd330Spec(), workload::WorkloadTrace{},
                   naive_cfg);
    ASSERT_TRUE(dedupe.run());
    ASSERT_TRUE(naive.run());

    // Per-server state is bit-identical: the digest covers every
    // server's enthalpies, PCM latches, and operating point.
    EXPECT_EQ(naive.materializedCount(), 32u);
    EXPECT_EQ(dedupe.stateDigest(), naive.stateDigest());

    // Aggregates sum in different shapes (aliased-count multiply vs
    // 32 additions), so compare to tight relative tolerance instead
    // of bit equality.
    FleetResult rd = dedupe.take();
    FleetResult rn = naive.take();
    ASSERT_EQ(rd.coolingLoadW.size(), rn.coolingLoadW.size());
    for (std::size_t i = 0; i < rd.coolingLoadW.size(); ++i) {
        double a = rd.coolingLoadW.values()[i];
        double b = rn.coolingLoadW.values()[i];
        EXPECT_NEAR(a, b, 1e-9 * std::abs(b));
    }
    EXPECT_NEAR(rd.coolingEnergyJ, rn.coolingEnergyJ,
                1e-9 * rn.coolingEnergyJ);
    EXPECT_GT(rd.dedupeFactor(), 1.5);
    EXPECT_NEAR(rn.dedupeFactor(), 32.0 / 33.0, 1e-9);
}

TEST(FleetDedupe, MixedPlatformsSplitIntoArenas)
{
    FleetConfig cfg = quietConfig(32);
    cfg.mixedPlatforms = true;
    FleetSim sim(server::rd330Spec(), workload::WorkloadTrace{},
                 cfg);
    ASSERT_EQ(sim.runs().size(), 3u);
    // 32 = 11 + 11 + 10, contiguous and disjoint.
    std::uint32_t next = 0;
    std::uint32_t total = 0;
    for (const ArchetypeRun &r : sim.runs()) {
        EXPECT_EQ(r.arena().firstServer(), next);
        next += r.arena().count();
        total += r.arena().count();
    }
    EXPECT_EQ(total, 32u);
    ASSERT_TRUE(sim.run());
    FleetResult r = sim.take();
    // Three baseline rows integrate for 32 logical servers.
    EXPECT_NEAR(r.dedupeFactor(), 32.0 / 3.0, 1e-9);
}

} // namespace
} // namespace fleet
} // namespace tts

/**
 * @file
 * The oracle is a fold over archetype runs.  evaluateCandidate runs
 * each platform slot alone and sums the slots' cooling trajectories
 * in arena order; that must be FleetSim's run of the same fleet, bit
 * for bit, with materialized rows in several arenas - two of them
 * hit at the same control step - under every placement policy.  The
 * trajectory memo keys a slot on its wax and the bits of its load
 * weight, and a memoized mixed search walks the memo-free search's
 * trajectory exactly.
 */

#include <gtest/gtest.h>

#include "core/thermal_time_shifting.hh"
#include "exec/parallel.hh"
#include "fleet/fleet.hh"
#include "opt_test_util.hh"

namespace tts {
namespace opt {
namespace {

/** The three-platform space with the placement policy unlocked. */
SearchSpace
mixedSpace()
{
    SpaceOptions so;
    so.meltMinC = 44.0;
    so.meltMaxC = 60.0;
    so.meltStepC = 1.0;
    so.boxRadius = 2;
    so.lockPolicy = false;
    return makeSearchSpace(core::paperPlatforms(), so);
}

/**
 * A 24-server mixed fleet (8 + 8 + 8) over one day whose events
 * materialize rows in every arena: servers 2 and 10 (arenas 0 and 1)
 * are hit at the same control step, server 2 again later, server 20
 * (arena 2) later still, and server 5 at the horizon, on top of the
 * generated schedule.
 */
OptOptions
mixedOptions()
{
    OptOptions o = fastOptions();
    o.fleet.run.serverCount = 24;
    o.fleet.mixedPlatforms = true;
    o.fleet.perturb.eventsPerServerDay = 0.5;
    o.fleet.extraEvents = {
        {3600.0, 2, fleet::PerturbKind::UtilizationDelta, 0.2},
        {3600.0, 10, fleet::PerturbKind::InletDrift, 3.0},
        {20000.0, 2, fleet::PerturbKind::InletDrift, 2.0},
        {30000.0, 20, fleet::PerturbKind::FanFailure, 0.0},
        {o.fleet.durationS, 5, fleet::PerturbKind::FanFailure, 0.0},
    };
    return o;
}

/** The FleetSim run of candidate @p c: the oracle without the fold. */
fleet::FleetResult
fleetRunOf(const SearchSpace &space, const Candidate &c,
           const workload::WorkloadTrace &trace, const OptOptions &opts)
{
    fleet::FleetConfig f = opts.fleet;
    for (std::size_t a = 0; a < space.archetypes.size(); ++a)
        f.archetypeWax.push_back(
            waxConfigOf(space, c, a, opts.fleet.run.meltWindowC));
    f.placement = space.policies[static_cast<std::size_t>(c.policy)];
    fleet::FleetSim sim(space.archetypes[0].spec, trace, f);
    EXPECT_TRUE(sim.run());
    // Rows in every arena, and arenas 0 and 1 cloned rows at the
    // same control step.
    const auto &runs = sim.runs();
    EXPECT_EQ(runs.size(), 3u);
    for (const fleet::ArchetypeRun &r : runs)
        EXPECT_FALSE(r.rows().empty());
    EXPECT_EQ(runs[0].rows().at(2).firstStep,
              runs[1].rows().at(10).firstStep);
    return sim.take();
}

TEST(OptFold, EvaluateCandidateIsTheFleetRunBitForBit)
{
    const SearchSpace space = mixedSpace();
    const auto trace = fastTrace();
    ASSERT_EQ(space.policies.size(), 3u);
    // The paper seed, and a neighbor whose OCP slot carries wax.
    Candidate paper = paperCandidate(space);
    Candidate other = paper;
    other.arch[2].massStep = 2;
    for (const Candidate &base : {paper, other}) {
        for (int policy = 0; policy < 3; ++policy) {
            Candidate c = base;
            c.policy = policy;
            for (Objective objective :
                 {Objective::PeakCooling, Objective::Tco}) {
                for (std::size_t threads : {1u, 4u}) {
                    SCOPED_TRACE("policy " + std::to_string(policy) +
                                 " " + objectiveName(objective) + " " +
                                 std::to_string(threads) + " threads");
                    exec::setGlobalThreads(threads);
                    OptOptions opts = mixedOptions();
                    opts.objective = objective;
                    EvalOutcome e =
                        evaluateCandidate(space, c, trace, opts);
                    fleet::FleetResult r =
                        fleetRunOf(space, c, trace, opts);
                    EXPECT_EQ(e.peakCoolingW, r.peakCoolingW);
                    EXPECT_EQ(e.coolingEnergyJ, r.coolingEnergyJ);
                }
            }
        }
    }
    exec::setGlobalThreads(exec::defaultThreadCount());
}

TEST(OptFold, WaxAwareKeysFollowTheOtherSlotsWax)
{
    const SearchSpace space = mixedSpace();
    OptOptions opts = mixedOptions();
    Candidate a = paperCandidate(space);
    Candidate b = a;
    b.arch[0].massStep -= 1;
    ASSERT_GT(a.arch[0].massStep, 1);
    for (int policy = 0; policy < 3; ++policy) {
        const workload::PlacementPolicy p =
            space.policies[static_cast<std::size_t>(policy)];
        SCOPED_TRACE(workload::placementPolicyName(p));
        a.policy = b.policy = policy;
        std::vector<ArchetypeKey> ka = archetypeKeys(space, a, opts);
        std::vector<ArchetypeKey> kb = archetypeKeys(space, b, opts);
        ASSERT_EQ(ka.size(), 3u);
        ASSERT_EQ(kb.size(), 3u);
        EXPECT_NE(ka[0], kb[0]);
        // Slot 1's wax did not change; under wax-aware placement its
        // weight did, so its run did too.
        if (p == workload::PlacementPolicy::WaxAware) {
            EXPECT_NE(ka[1], kb[1]);
        } else {
            EXPECT_EQ(ka[1], kb[1]);
        }
    }
}

TEST(OptFold, MixedMemoSearchWalksTheMemoFreeTrajectory)
{
    const SearchSpace space = mixedSpace();
    const auto trace = fastTrace();

    OptOptions on = mixedOptions();
    on.budget = 36;
    OptResult with_memo = optimizeWaxPlacement(space, trace, on);

    OptOptions off = on;
    off.useMemo = false;
    OptResult without_memo = optimizeWaxPlacement(space, trace, off);

    EXPECT_TRUE(with_memo.best == without_memo.best);
    EXPECT_EQ(with_memo.bestCost, without_memo.bestCost);
    EXPECT_EQ(with_memo.baselineCost, without_memo.baselineCost);
    EXPECT_EQ(with_memo.evaluations, without_memo.evaluations);
    EXPECT_EQ(with_memo.polishRounds, without_memo.polishRounds);
    ASSERT_EQ(with_memo.trace.size(), without_memo.trace.size());
    for (std::size_t i = 0; i < with_memo.trace.size(); ++i) {
        EXPECT_EQ(with_memo.trace[i].currentCost,
                  without_memo.trace[i].currentCost)
            << i;
        EXPECT_EQ(with_memo.trace[i].restartBestCost,
                  without_memo.trace[i].restartBestCost)
            << i;
    }

    // Every slot of every priced fleet is either run or served.
    EXPECT_EQ(with_memo.archRuns + with_memo.archMemoHits,
              3 * with_memo.oracleCalls);
    EXPECT_EQ(without_memo.archRuns, 3 * without_memo.oracleCalls);
    EXPECT_EQ(without_memo.archMemoHits, 0u);
    // The walk moves one slot or the policy at a time, so the memo
    // must serve slots.
    EXPECT_GT(with_memo.archMemoHits, 0u);
    EXPECT_LT(with_memo.archRuns, without_memo.archRuns);
}

TEST(OptFold, MixedMemoSearchIsBitIdenticalAtOneAndFourThreads)
{
    const SearchSpace space = mixedSpace();
    const auto trace = fastTrace();
    OptOptions opts = mixedOptions();
    opts.budget = 36;
    exec::setGlobalThreads(1);
    OptResult serial = optimizeWaxPlacement(space, trace, opts);
    exec::setGlobalThreads(4);
    OptResult parallel = optimizeWaxPlacement(space, trace, opts);
    exec::setGlobalThreads(exec::defaultThreadCount());

    EXPECT_TRUE(serial.best == parallel.best);
    EXPECT_EQ(serial.bestCost, parallel.bestCost);
    EXPECT_EQ(serial.bestOutcome.coolingEnergyJ,
              parallel.bestOutcome.coolingEnergyJ);
    EXPECT_EQ(serial.oracleCalls, parallel.oracleCalls);
    EXPECT_EQ(serial.archRuns, parallel.archRuns);
    EXPECT_EQ(serial.archMemoHits, parallel.archMemoHits);
    ASSERT_EQ(serial.trace.size(), parallel.trace.size());
    for (std::size_t i = 0; i < serial.trace.size(); ++i)
        EXPECT_EQ(serial.trace[i].currentCost,
                  parallel.trace[i].currentCost)
            << i;
}

} // namespace
} // namespace opt
} // namespace tts

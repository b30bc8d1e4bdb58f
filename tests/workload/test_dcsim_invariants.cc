/**
 * @file
 * Accounting invariants of the DCSim-style cluster simulator.
 *
 * The performance tests in test_dcsim.cc check that the simulator
 * behaves like the queueing system it models; these tests check that
 * its bookkeeping cannot lie, across many seeds:
 *
 *   - conservation: every offered job is completed, dropped, or still
 *     in the system when the trace ends - no job is both, none
 *     vanishes;
 *   - the offered arrival count matches the trace's integrated load
 *     within Poisson confidence bounds;
 *   - no FIFO queue ever exceeds queueCapPerServer;
 *   - round-robin keeps per-server utilization uniform at every
 *     seed, not just the one the performance test happens to use;
 *   - the same bookkeeping survives randomized fault injection:
 *     crashes, recoveries, and trace gaps cannot make a job vanish
 *     or be double-counted, and a dead server completes nothing;
 *   - dispatch is round-robin over the alive servers, job by job.
 */

#include <cmath>
#include <gtest/gtest.h>

#include "fault/fault_schedule.hh"
#include "obs/obs.hh"
#include "util/units.hh"
#include "workload/dcsim.hh"
#include "workload/google_trace.hh"

namespace tts {
namespace workload {
namespace {

WorkloadTrace
flatTrace(double util, double duration = 3600.0)
{
    WorkloadTrace t;
    double per_class = util / 3.0;
    t.append(0.0, {per_class, per_class, per_class});
    t.append(duration, {per_class, per_class, per_class});
    return t;
}

DcSimConfig
configForSeed(std::uint64_t seed)
{
    DcSimConfig c;
    c.serverCount = 16;
    c.slotsPerServer = 8;
    c.meanServiceTimeS = 10.0;
    c.statsIntervalS = 60.0;
    c.seed = seed;
    return c;
}

TEST(DcSimInvariants, EveryOfferedJobIsAccountedFor)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        ClusterSim sim(configForSeed(seed));
        auto r = sim.run(flatTrace(0.7));
        // A job is exactly one of completed, dropped, or residual:
        // the three disjoint counters must partition the offered set.
        EXPECT_EQ(r.offeredJobs,
                  r.completedJobs + r.droppedJobs + r.residualJobs)
            << "seed " << seed;
        // At 70 % load with deep queues nothing should drop, so
        // completions cannot exceed offers.
        EXPECT_EQ(r.droppedJobs, 0u) << "seed " << seed;
        EXPECT_LE(r.completedJobs, r.offeredJobs) << "seed " << seed;
    }
}

TEST(DcSimInvariants, AccountingHoldsUnderOverloadAndDrops)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        auto cfg = configForSeed(seed);
        cfg.queueCapPerServer = 4;
        ClusterSim sim(cfg);
        auto r = sim.run(flatTrace(1.5)); // 150 % of capacity.
        EXPECT_GT(r.droppedJobs, 0u) << "seed " << seed;
        EXPECT_EQ(r.offeredJobs,
                  r.completedJobs + r.droppedJobs + r.residualJobs)
            << "seed " << seed;
    }
}

TEST(DcSimInvariants, OfferedLoadMatchesTraceWithinPoissonBounds)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        auto cfg = configForSeed(seed);
        double util = 0.6;
        double duration = 7200.0;
        ClusterSim sim(cfg);
        auto r = sim.run(flatTrace(util, duration));

        // lambda = util * servers * slots / service time; the offered
        // count is Poisson(lambda * T), so a 5-sigma band around the
        // mean catches a broken thinning loop without being flaky.
        double expected = util *
            static_cast<double>(cfg.serverCount) *
            static_cast<double>(cfg.slotsPerServer) /
            cfg.meanServiceTimeS * duration;
        double sigma = std::sqrt(expected);
        EXPECT_NEAR(static_cast<double>(r.offeredJobs), expected,
                    5.0 * sigma)
            << "seed " << seed;
    }
}

TEST(DcSimInvariants, QueueDepthNeverExceedsCap)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        auto cfg = configForSeed(seed);
        cfg.queueCapPerServer = 6;
        ClusterSim sim(cfg);
        // Overload hard enough that queues saturate.
        auto r = sim.run(flatTrace(1.8));
        EXPECT_LE(r.maxQueueDepth, cfg.queueCapPerServer)
            << "seed " << seed;
        // And the cap was actually exercised, or the bound above
        // tested nothing.
        EXPECT_EQ(r.maxQueueDepth, cfg.queueCapPerServer)
            << "seed " << seed;
    }
}

TEST(DcSimInvariants, RoundRobinUniformAcrossSeeds)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        ClusterSim sim(configForSeed(seed));
        auto r = sim.run(flatTrace(0.6));
        EXPECT_LT(r.utilizationSpread(), 0.08) << "seed " << seed;
    }
}

TEST(DcSimInvariants, DiurnalTraceConservesJobsToo)
{
    // The invariants hold on the real (time-varying) trace, where
    // the thinning branch actually rejects arrivals.
    GoogleTraceParams p;
    p.durationS = units::days(1.0);
    p.sampleIntervalS = 600.0;
    auto trace = makeGoogleTrace(p);
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        ClusterSim sim(configForSeed(seed));
        auto r = sim.run(trace);
        EXPECT_EQ(r.offeredJobs,
                  r.completedJobs + r.droppedJobs + r.residualJobs)
            << "seed " << seed;
        EXPECT_GT(r.offeredJobs, 0u);
    }
}

fault::FaultSchedule
randomFaults(std::uint64_t seed, std::size_t server_count,
             double horizon_s)
{
    fault::FaultProfile p;
    p.serverCrashPerHour = 2.0;
    p.serverRepairMeanS = 300.0;
    p.traceGapPerHour = 2.0;
    p.traceGapMeanS = 120.0;
    // Thermal kinds ride along to prove the cluster sim skips them
    // without disturbing its accounting.
    p.coolingTripPerHour = 1.0;
    p.coolingTripFraction = 0.5;
    p.sensorDropoutPerHour = 1.0;
    return fault::generateSchedule(p, horizon_s, server_count,
                                   seed);
}

TEST(DcSimFaultInvariants, AccountingPartitionsUnderRandomFaults)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        auto cfg = configForSeed(seed);
        auto faults = randomFaults(seed * 101, cfg.serverCount,
                                   3600.0);
        ClusterSim sim(cfg);
        auto r = sim.run(flatTrace(0.8), &faults);

        EXPECT_EQ(r.offeredJobs,
                  r.completedJobs + r.droppedJobs + r.residualJobs)
            << "seed " << seed;
        EXPECT_LE(r.crashKilledJobs, r.droppedJobs)
            << "seed " << seed;
        EXPECT_LE(r.rejectedNoAliveServer, r.droppedJobs)
            << "seed " << seed;

        // Per-server completions tally with the cluster total.
        std::uint64_t by_server = 0;
        for (auto c : r.completedByServer)
            by_server += c;
        EXPECT_EQ(by_server, r.completedJobs) << "seed " << seed;

        // Utilization is a fraction of slots at every sample.
        for (double v : r.clusterUtilization.values()) {
            EXPECT_GE(v, 0.0) << "seed " << seed;
            EXPECT_LE(v, 1.0) << "seed " << seed;
        }
    }
}

TEST(DcSimFaultInvariants, DeadServerCompletesNothing)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        auto cfg = configForSeed(seed);
        fault::FaultSchedule faults;
        // Server 3 dies before any arrival and never recovers.
        faults.add(0.0, fault::FaultKind::ServerCrash, 3);
        ClusterSim sim(cfg);
        auto r = sim.run(flatTrace(0.8), &faults);

        ASSERT_EQ(r.completedByServer.size(), cfg.serverCount);
        EXPECT_EQ(r.completedByServer[3], 0u) << "seed " << seed;
        // Round-robin dispatch went around the dead server.
        EXPECT_GT(r.completedJobs, 0u) << "seed " << seed;
        EXPECT_EQ(r.offeredJobs,
                  r.completedJobs + r.droppedJobs + r.residualJobs)
            << "seed " << seed;
    }
}

TEST(DcSimFaultInvariants, DispatchCyclesOverAliveServersInIndexOrder)
{
    // Server 2 is down from 600 s to 1200 s.  The n-th dispatched
    // job goes to the (n mod alive)-th alive server in index order:
    // the rotation skips the dead server and is never restarted.
    auto cfg = configForSeed(3);
    fault::FaultSchedule faults;
    faults.add(600.0, fault::FaultKind::ServerCrash, 2);
    faults.add(1200.0, fault::FaultKind::ServerRecover, 2);

    obs::setEnabled(true);
    obs::resetForTest();
    auto r = ClusterSim(cfg).run(flatTrace(0.3, 1800.0), &faults);
    std::vector<obs::TraceEvent> events = obs::drainEvents();
    obs::setEnabled(false);
    obs::resetForTest();

    // Light load: no queue overflows, so every offered job is
    // accepted and traced as one dispatch.
    ASSERT_EQ(r.droppedJobs, r.crashKilledJobs);
    std::uint64_t n = 0;
    for (const obs::TraceEvent &e : events) {
        if (e.kind != obs::EventKind::JobDispatch)
            continue;
        std::vector<std::int64_t> alive;
        for (std::int64_t s = 0; s < 16; ++s)
            if (s != 2 || e.timeS < 600.0 || e.timeS >= 1200.0)
                alive.push_back(s);
        ASSERT_EQ(e.target, alive[n % alive.size()])
            << "job " << n << " at t=" << e.timeS;
        ++n;
    }
    EXPECT_EQ(n, r.offeredJobs);
    EXPECT_GT(r.crashKilledJobs, 0u);
}

TEST(DcSimFaultInvariants, MidRunCrashKillsInFlightJobsExactly)
{
    auto cfg = configForSeed(7);
    fault::FaultSchedule faults;
    faults.add(1800.0, fault::FaultKind::ServerCrash, 0);
    ClusterSim sim(cfg);
    auto r = sim.run(flatTrace(0.9), &faults);

    // At 90 % load the victim had work in flight: the kill counter
    // is live and every dropped job here came from the crash.
    EXPECT_GT(r.crashKilledJobs, 0u);
    EXPECT_EQ(r.droppedJobs, r.crashKilledJobs);
    EXPECT_EQ(r.offeredJobs,
              r.completedJobs + r.droppedJobs + r.residualJobs);
    EXPECT_EQ(r.faultEventsApplied, 1u);
}

TEST(DcSimFaultInvariants, AllServersDeadRejectsArrivals)
{
    auto cfg = configForSeed(3);
    fault::FaultSchedule faults;
    for (std::size_t s = 0; s < cfg.serverCount; ++s)
        faults.add(600.0, fault::FaultKind::ServerCrash, s);
    ClusterSim sim(cfg);
    auto r = sim.run(flatTrace(0.7), &faults);

    EXPECT_GT(r.rejectedNoAliveServer, 0u);
    // Nothing completes after the massacre and nothing lingers.
    EXPECT_EQ(r.residualJobs, 0u);
    EXPECT_EQ(r.offeredJobs,
              r.completedJobs + r.droppedJobs + r.residualJobs);
}

TEST(DcSimFaultInvariants, TraceGapSuppressesOffers)
{
    auto cfg = configForSeed(5);
    // Dark input for the middle half of the run.
    fault::FaultSchedule faults;
    faults.add(900.0, fault::FaultKind::TraceGapStart);
    faults.add(2700.0, fault::FaultKind::TraceGapEnd);
    ClusterSim sim(cfg);
    auto gap = sim.run(flatTrace(0.7), &faults);
    ClusterSim base_sim(cfg);
    auto base = base_sim.run(flatTrace(0.7));

    // The gap's would-be jobs are never offered: roughly half the
    // fault-free volume, and far fewer than a no-gap run.
    EXPECT_LT(gap.offeredJobs, base.offeredJobs * 3 / 4);
    EXPECT_GT(gap.offeredJobs, 0u);
    EXPECT_EQ(gap.offeredJobs,
              gap.completedJobs + gap.droppedJobs +
                  gap.residualJobs);
}

TEST(DcSimFaultInvariants, NullScheduleMatchesLegacyPathExactly)
{
    // run(trace) and run(trace, nullptr) and an empty schedule all
    // draw the same RNG stream: bit-identical results.
    auto cfg = configForSeed(11);
    fault::FaultSchedule empty;
    auto a = ClusterSim(cfg).run(flatTrace(0.7));
    auto b = ClusterSim(cfg).run(flatTrace(0.7), nullptr);
    auto c = ClusterSim(cfg).run(flatTrace(0.7), &empty);

    for (const auto &r : {b, c}) {
        EXPECT_EQ(a.offeredJobs, r.offeredJobs);
        EXPECT_EQ(a.completedJobs, r.completedJobs);
        EXPECT_EQ(a.droppedJobs, r.droppedJobs);
        EXPECT_EQ(a.residualJobs, r.residualJobs);
        EXPECT_EQ(a.clusterUtilization.values(),
                  r.clusterUtilization.values());
    }
}

} // namespace
} // namespace workload
} // namespace tts

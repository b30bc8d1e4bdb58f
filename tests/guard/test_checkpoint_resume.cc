/**
 * @file
 * Kill-and-resume integration tests: a resilience run interrupted at
 * a checkpoint boundary and resumed in a fresh runner (simulating a
 * new process) must produce a result bit-identical to an
 * uninterrupted run, at 1 and 8 worker threads.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/resilience_study.hh"
#include "exec/parallel.hh"
#include "fault/fault_schedule.hh"
#include "server/server_spec.hh"
#include "util/error.hh"

namespace tts {
namespace core {
namespace {

/** A scenario small enough to restart a dozen times in a test. */
ResilienceScenario
smallScenario()
{
    ResilienceScenario s;
    s.name = "resume_test";
    s.horizonS = 1800.0;
    s.utilization = 0.8;
    s.faults.add(300.0, fault::FaultKind::CoolingTrip,
                 fault::FaultEvent::noTarget, 1.0);
    return s;
}

ResilienceConfig
smallOptions()
{
    ResilienceConfig opt;
    opt.run.serverCount = 64;
    opt.cluster.serverCount = 8;
    opt.stepS = 10.0;
    return opt;
}

void
expectSameSeries(const TimeSeries &a, const TimeSeries &b)
{
    EXPECT_EQ(a.times(), b.times());
    EXPECT_EQ(a.values(), b.values());
}

void
expectSameArm(const ResilienceArm &a, const ResilienceArm &b)
{
    expectSameSeries(a.roomAirC, b.roomAirC);
    expectSameSeries(a.sensedInletC, b.sensedInletC);
    expectSameSeries(a.waxMelt, b.waxMelt);
    expectSameSeries(a.throughputRel, b.throughputRel);
    EXPECT_EQ(a.rideThroughS, b.rideThroughS);
    EXPECT_EQ(a.hitLimit, b.hitLimit);
    EXPECT_EQ(a.throughputRetention, b.throughputRetention);
    EXPECT_EQ(a.throttledS, b.throttledS);
    EXPECT_EQ(a.guard.advances, b.guard.advances);
    EXPECT_EQ(a.guard.steps, b.guard.steps);
    EXPECT_EQ(a.guard.audits, b.guard.audits);
    EXPECT_EQ(a.guard.sentinelTrips, b.guard.sentinelTrips);
    EXPECT_EQ(a.guard.auditTrips, b.guard.auditTrips);
    EXPECT_EQ(a.guard.retries, b.guard.retries);
    EXPECT_EQ(a.guard.fallbacks, b.guard.fallbacks);
    EXPECT_EQ(a.guard.worstResidualJ, b.guard.worstResidualJ);
}

void
expectSameResult(const ResilienceResult &a, const ResilienceResult &b)
{
    EXPECT_EQ(a.scenario, b.scenario);
    expectSameArm(a.noWax, b.noWax);
    expectSameArm(a.withWax, b.withWax);
    expectSameSeries(a.cluster.clusterUtilization,
                     b.cluster.clusterUtilization);
    EXPECT_EQ(a.cluster.completedJobs, b.cluster.completedJobs);
    EXPECT_EQ(a.cluster.droppedJobs, b.cluster.droppedJobs);
    EXPECT_EQ(a.cluster.offeredJobs, b.cluster.offeredJobs);
    EXPECT_EQ(a.cluster.residualJobs, b.cluster.residualJobs);
    EXPECT_EQ(a.cluster.perServerUtilization,
              b.cluster.perServerUtilization);
    EXPECT_EQ(a.cluster.latency.count(), b.cluster.latency.count());
    EXPECT_EQ(a.cluster.latency.mean(), b.cluster.latency.mean());
}

/**
 * Run the small scenario killed every 350 simulated seconds, with a
 * fresh runner per attempt (nothing carries over but the checkpoint
 * file), and return the final result.
 */
ResilienceResult
chunkedRun(const std::string &path)
{
    std::remove(path.c_str());
    guard::CheckpointPolicy policy;
    policy.path = path;
    policy.checkpointEveryS = 200.0;
    policy.stopAfterS = 350.0;

    // Both thermal arms plus the cluster phase advance ~5400
    // simulated seconds in total; cap the restarts defensively.
    for (int attempt = 0; attempt < 40; ++attempt) {
        ResilienceRunner runner(server::rd330Spec(), smallScenario(),
                                smallOptions());
        if (runner.run(policy)) {
            std::remove(path.c_str());
            return runner.take();
        }
    }
    ADD_FAILURE() << "scenario did not finish within 40 restarts";
    std::remove(path.c_str());
    return ResilienceResult{};
}

TEST(CheckpointResume, KilledRunnerResumesBitIdentically)
{
    const ResilienceResult want = runResilienceStudy(
        server::rd330Spec(), smallScenario(), smallOptions());
    // The trip must bite (the room heats), so the checkpoint carries
    // a non-trivial injector cursor and thermal state.
    ASSERT_GT(want.noWax.roomAirC.values().back(),
              want.noWax.roomAirC.values().front() + 1.0);

    const std::string base = testing::TempDir() + "/tts_resume_";
    exec::setGlobalThreads(1);
    expectSameResult(chunkedRun(base + "t1.tts"), want);
    exec::setGlobalThreads(8);
    expectSameResult(chunkedRun(base + "t8.tts"), want);
    exec::setGlobalThreads(1);
}

TEST(CheckpointResume, RunnerRefusesAForeignCheckpoint)
{
    const std::string path =
        testing::TempDir() + "/tts_resume_foreign.tts";
    std::remove(path.c_str());

    // Checkpoint scenario A, then try to resume scenario B from it.
    guard::CheckpointPolicy policy;
    policy.path = path;
    policy.stopAfterS = 350.0;
    ResilienceRunner a(server::rd330Spec(), smallScenario(),
                       smallOptions());
    ASSERT_FALSE(a.run(policy));

    ResilienceScenario other = smallScenario();
    other.name = "some_other_scenario";
    ResilienceRunner b(server::rd330Spec(), other, smallOptions());
    EXPECT_THROW(b.run(policy), FatalError);
    std::remove(path.c_str());
}

TEST(CheckpointResume, NonPositiveIntervalIsRejected)
{
    const std::string path =
        testing::TempDir() + "/tts_resume_interval.tts";
    std::remove(path.c_str());
    guard::CheckpointPolicy policy;
    policy.path = path;
    policy.checkpointEveryS = 0.0;
    ResilienceRunner runner(server::rd330Spec(), smallScenario(),
                            smallOptions());
    try {
        runner.run(policy);
        ADD_FAILURE() << "interval 0 was accepted";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("checkpointEveryS"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("(got 0)"), std::string::npos) << msg;
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace core
} // namespace tts

/**
 * @file
 * Tests for the fault-injection schedule and injector: event
 * ordering, generation determinism, serialization round-trips, and
 * the injector's degraded-state bookkeeping.
 */

#include <gtest/gtest.h>

#include "fault/fault_injector.hh"
#include "fault/fault_schedule.hh"
#include "util/error.hh"

namespace tts {
namespace fault {
namespace {

TEST(FaultSchedule, KeepsEventsSortedByTime)
{
    FaultSchedule s;
    s.add(300.0, FaultKind::ServerCrash, 2);
    s.add(100.0, FaultKind::CoolingTrip, FaultEvent::noTarget,
          0.5);
    s.add(200.0, FaultKind::FanFailure, 0);

    ASSERT_EQ(s.size(), 3u);
    EXPECT_EQ(s.events()[0].timeS, 100.0);
    EXPECT_EQ(s.events()[1].timeS, 200.0);
    EXPECT_EQ(s.events()[2].timeS, 300.0);
}

TEST(FaultSchedule, RecoverySortsBeforeFailureAtEqualTime)
{
    // Pessimistic tie order: recover then crash leaves the server
    // down, regardless of insertion order.
    FaultSchedule s;
    s.add(60.0, FaultKind::ServerCrash, 0);
    s.add(60.0, FaultKind::ServerRecover, 0);
    EXPECT_EQ(s.events()[0].kind, FaultKind::ServerRecover);
    EXPECT_EQ(s.events()[1].kind, FaultKind::ServerCrash);

    FaultInjector inj(s, 4, 25.0);
    inj.advanceTo(60.0);
    EXPECT_FALSE(inj.serverAlive(0));
}

TEST(FaultSchedule, ValidatesEvents)
{
    FaultSchedule s;
    // Negative / non-finite time.
    EXPECT_THROW(s.add(-1.0, FaultKind::ServerCrash, 0),
                 FatalError);
    // Per-server kind without a target.
    EXPECT_THROW(s.add(0.0, FaultKind::ServerCrash), FatalError);
    // Plant-wide kind with a target.
    EXPECT_THROW(s.add(0.0, FaultKind::CoolingTrip, 3, 0.5),
                 FatalError);
    // Cooling fraction out of (0, 1].
    EXPECT_THROW(s.add(0.0, FaultKind::CoolingTrip,
                       FaultEvent::noTarget, 0.0),
                 FatalError);
    EXPECT_THROW(s.add(0.0, FaultKind::CoolingTrip,
                       FaultEvent::noTarget, 1.5),
                 FatalError);
    EXPECT_TRUE(s.empty());
}

TEST(FaultSchedule, SerializationRoundTripsBitForBit)
{
    FaultProfile p;
    p.serverCrashPerHour = 0.5;
    p.fanFailurePerHour = 0.25;
    p.coolingTripPerHour = 1.0;
    p.coolingTripFraction = 0.375;
    p.sensorDriftPerHour = 2.0;
    p.sensorDropoutPerHour = 1.5;
    p.traceGapPerHour = 3.0;
    auto original = generateSchedule(p, 7200.0, 16, 7);
    ASSERT_FALSE(original.empty());

    auto restored = FaultSchedule::parse(original.serialize());
    ASSERT_EQ(restored.size(), original.size());
    EXPECT_TRUE(restored == original);
    // And a second hop is a fixed point.
    EXPECT_EQ(restored.serialize(), original.serialize());
}

TEST(FaultSchedule, ParseRejectsMalformedInput)
{
    EXPECT_THROW(FaultSchedule::parse(""), FatalError);
    EXPECT_THROW(FaultSchedule::parse("not-a-schedule\n"),
                 FatalError);
    const std::string header = "tts-fault-schedule v1\n";
    EXPECT_THROW(
        FaultSchedule::parse(header + "quantum_flip - 10 0\n"),
        FatalError);
    EXPECT_THROW(
        FaultSchedule::parse(header + "server_crash x 10 0\n"),
        FatalError);
    EXPECT_THROW(
        FaultSchedule::parse(header + "server_crash 0 10\n"),
        FatalError);
    EXPECT_THROW(
        FaultSchedule::parse(header +
                             "server_crash 0 10 0 extra\n"),
        FatalError);
    // Valid line still parses after the failures above.
    auto ok = FaultSchedule::parse(header + "server_crash 3 10 0\n");
    ASSERT_EQ(ok.size(), 1u);
    EXPECT_EQ(ok.events()[0].target, 3u);
}

TEST(FaultSchedule, TargetIsDashOrDecimalDigits)
{
    const std::string header = "tts-fault-schedule v1\n";
    // All but 2^64 used to parse: a digit prefix, a base prefix, a
    // sign, or a value (-1 wraps there) equal to the plant-wide
    // sentinel that "-" stands for.
    for (const char *line :
         {"server_crash 3abc 10 0", "server_crash 0x10 10 0",
          "server_crash +7 10 0",
          "server_crash 18446744073709551616 10 0",
          "cooling_trip -1 600 0.5",
          "cooling_trip 18446744073709551615 600 0.5"}) {
        try {
            FaultSchedule::parse(header + "server_crash 1 5 0\n" +
                                 line + "\n");
            ADD_FAILURE() << "accepted '" << line << "'";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("bad target"),
                      std::string::npos)
                << e.what();
            EXPECT_NE(std::string(e.what()).find("at line 3"),
                      std::string::npos)
                << e.what();
        }
    }
    auto ok = FaultSchedule::parse(header + "server_crash 007 10 0\n"
                                            "cooling_trip - 600 0.5\n");
    ASSERT_EQ(ok.size(), 2u);
    EXPECT_EQ(ok.events()[0].target, 7u);
    EXPECT_EQ(ok.events()[1].target, FaultEvent::noTarget);
}

TEST(FaultSchedule, GenerationIsDeterministicPerSeed)
{
    FaultProfile p;
    p.serverCrashPerHour = 1.0;
    p.coolingTripPerHour = 0.5;
    p.coolingTripFraction = 0.5;
    p.traceGapPerHour = 1.0;

    auto a = generateSchedule(p, 3600.0, 8, 42);
    auto b = generateSchedule(p, 3600.0, 8, 42);
    auto c = generateSchedule(p, 3600.0, 8, 43);
    EXPECT_TRUE(a == b);
    EXPECT_FALSE(a == c);
    EXPECT_FALSE(a.empty());
}

TEST(FaultSchedule, ProcessStreamsAreIndependent)
{
    // Adding a second fault process must not perturb the first
    // one's events (each draws from its own Rng::forStream).
    FaultProfile crash_only;
    crash_only.serverCrashPerHour = 1.0;
    FaultProfile crash_and_cooling = crash_only;
    crash_and_cooling.coolingTripPerHour = 2.0;
    crash_and_cooling.coolingTripFraction = 0.5;

    auto a = generateSchedule(crash_only, 3600.0, 8, 42);
    auto b = generateSchedule(crash_and_cooling, 3600.0, 8, 42);

    std::vector<FaultEvent> crashes_a, crashes_b;
    for (const auto &e : a.events())
        if (kindTargetsServer(e.kind))
            crashes_a.push_back(e);
    for (const auto &e : b.events())
        if (kindTargetsServer(e.kind))
            crashes_b.push_back(e);
    EXPECT_EQ(crashes_a, crashes_b);
}

TEST(FaultSchedule, GeneratedRepairsFollowTheirFailure)
{
    FaultProfile p;
    p.serverCrashPerHour = 2.0;
    p.serverRepairMeanS = 300.0;
    auto s = generateSchedule(p, 7200.0, 4, 11);

    // Per server: strictly alternating crash/recover.
    for (std::size_t target = 0; target < 4; ++target) {
        bool down = false;
        for (const auto &e : s.events()) {
            if (e.target != target)
                continue;
            if (e.kind == FaultKind::ServerCrash) {
                EXPECT_FALSE(down);
                down = true;
            } else if (e.kind == FaultKind::ServerRecover) {
                EXPECT_TRUE(down);
                down = false;
            }
        }
    }
}

TEST(FaultInjector, TracksServerAndFanState)
{
    FaultSchedule s;
    s.add(10.0, FaultKind::ServerCrash, 1);
    s.add(20.0, FaultKind::FanFailure, 0);
    s.add(30.0, FaultKind::ServerRecover, 1);
    s.add(40.0, FaultKind::FanRepair, 0);

    FaultInjector inj(s, 3, 25.0);
    EXPECT_EQ(inj.aliveServers(), 3u);

    inj.advanceTo(15.0);
    EXPECT_FALSE(inj.serverAlive(1));
    EXPECT_EQ(inj.aliveServers(), 2u);

    inj.advanceTo(25.0);
    EXPECT_TRUE(inj.fanFailed(0));
    EXPECT_EQ(inj.aliveFanFailed(), 1u);

    inj.advanceTo(45.0);
    EXPECT_TRUE(inj.serverAlive(1));
    EXPECT_FALSE(inj.fanFailed(0));
    EXPECT_EQ(inj.eventsApplied(), 4u);
}

TEST(FaultInjector, CoolingCapacityComposesAndClamps)
{
    FaultSchedule s;
    s.add(10.0, FaultKind::CoolingTrip, FaultEvent::noTarget, 0.6);
    s.add(20.0, FaultKind::CoolingTrip, FaultEvent::noTarget, 0.6);
    s.add(30.0, FaultKind::CoolingRestore, FaultEvent::noTarget,
          0.6);
    s.add(40.0, FaultKind::CoolingRestore, FaultEvent::noTarget,
          0.6);

    FaultInjector inj(s, 1, 25.0);
    EXPECT_DOUBLE_EQ(inj.coolingCapacityFraction(), 1.0);
    inj.advanceTo(10.0);
    EXPECT_NEAR(inj.coolingCapacityFraction(), 0.4, 1e-12);
    inj.advanceTo(20.0); // 120 % lost clamps to zero capacity.
    EXPECT_DOUBLE_EQ(inj.coolingCapacityFraction(), 0.0);
    inj.advanceTo(30.0);
    EXPECT_NEAR(inj.coolingCapacityFraction(), 0.4, 1e-12);
    inj.advanceTo(40.0);
    EXPECT_DOUBLE_EQ(inj.coolingCapacityFraction(), 1.0);
}

TEST(FaultInjector, SensorDriftsAndHoldsLastDuringDropout)
{
    FaultSchedule s;
    s.add(10.0, FaultKind::SensorDrift, FaultEvent::noTarget,
          -2.0);
    s.add(20.0, FaultKind::SensorDropout);
    s.add(30.0, FaultKind::SensorRestore);

    FaultInjector inj(s, 1, 25.0);
    EXPECT_DOUBLE_EQ(inj.senseInlet(25.0), 25.0);

    inj.advanceTo(15.0);
    EXPECT_DOUBLE_EQ(inj.senseInlet(30.0), 28.0); // Drifted -2 C.

    inj.advanceTo(25.0);
    EXPECT_FALSE(inj.sensorValid());
    // Dropout: the reading is stuck at the last reported value no
    // matter what the room does.
    EXPECT_DOUBLE_EQ(inj.senseInlet(40.0), 28.0);
    EXPECT_DOUBLE_EQ(inj.senseInlet(44.0), 28.0);

    inj.advanceTo(35.0);
    EXPECT_TRUE(inj.sensorValid());
    EXPECT_DOUBLE_EQ(inj.senseInlet(40.0), 38.0); // Drift intact.
}

TEST(FaultInjector, DropoutBeforeFirstReadingHoldsInitial)
{
    FaultSchedule s;
    s.add(0.0, FaultKind::SensorDropout);
    FaultInjector inj(s, 1, 25.0);
    inj.advanceTo(5.0);
    EXPECT_DOUBLE_EQ(inj.senseInlet(99.0), 25.0);
}

TEST(FaultInjector, TraceGapsNest)
{
    FaultSchedule s;
    s.add(10.0, FaultKind::TraceGapStart);
    s.add(20.0, FaultKind::TraceGapStart);
    s.add(30.0, FaultKind::TraceGapEnd);
    s.add(40.0, FaultKind::TraceGapEnd);

    FaultInjector inj(s, 1, 25.0);
    EXPECT_FALSE(inj.traceGapActive());
    inj.advanceTo(15.0);
    EXPECT_TRUE(inj.traceGapActive());
    inj.advanceTo(35.0); // One gap still open.
    EXPECT_TRUE(inj.traceGapActive());
    inj.advanceTo(45.0);
    EXPECT_FALSE(inj.traceGapActive());
}

TEST(FaultInjector, RejectsBadUsage)
{
    FaultSchedule s;
    s.add(10.0, FaultKind::ServerCrash, 5);
    // Event targets a server outside the cluster.
    EXPECT_THROW(FaultInjector(s, 4, 25.0), FatalError);

    FaultSchedule ok;
    ok.add(10.0, FaultKind::ServerCrash, 0);
    FaultInjector inj(ok, 4, 25.0);
    inj.advanceTo(20.0);
    // Time cannot move backwards.
    EXPECT_THROW(inj.advanceTo(10.0), FatalError);
}

} // namespace
} // namespace fault
} // namespace tts

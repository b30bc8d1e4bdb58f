/**
 * @file
 * The shared state codecs every resumable runner checkpoints through
 * - TimeSeries and GuardCounters (guard), a server's thermal state
 * (server::ServerModel), the fault-replay state (fault::FaultInjector)
 * - round-trip exactly and refuse hostile blocks with a FatalError
 * that names the offending key.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "fault/fault_injector.hh"
#include "fault/fault_schedule.hh"
#include "guard/checkpoint.hh"
#include "server/server_model.hh"
#include "server/server_spec.hh"
#include "util/error.hh"

namespace tts {
namespace guard {
namespace {

/** @return The FatalError message @p fn raises, or "" if none. */
template <class Fn>
std::string
fatalMessage(Fn fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(StateCodecs, SeriesAndCountersRoundTripExactly)
{
    TimeSeries s("load");
    s.append(0.0, 0.1);
    s.append(60.0, 0.083927817053314313);
    GuardCounters c;
    c.advances = 1;
    c.steps = 2;
    c.audits = 3;
    c.sentinelTrips = 4;
    c.auditTrips = 5;
    c.retries = 6;
    c.fallbacks = 7;
    c.worstResidualJ = 1e-9;
    c.worstResidualTimeS = 42.0;

    CheckpointWriter w;
    w.putSeries("s", s);
    w.putCounters("g", c);
    CheckpointReader r(w.finish(), "test");
    TimeSeries back = r.expectSeries("s", "load");
    GuardCounters g = r.expectCounters("g");
    r.expectEnd();
    EXPECT_EQ(back.name(), "load");
    EXPECT_EQ(back.times(), s.times());
    EXPECT_EQ(back.values(), s.values());
    EXPECT_EQ(g.advances, 1u);
    EXPECT_EQ(g.fallbacks, 7u);
    EXPECT_EQ(g.worstResidualJ, 1e-9);
    EXPECT_EQ(g.worstResidualTimeS, 42.0);
}

TEST(StateCodecs, RaggedSeriesIsRejectedByKey)
{
    CheckpointWriter w;
    w.putVector("cooling.times", {0.0, 60.0, 120.0});
    w.putVector("cooling.values", {1.0, 2.0});
    CheckpointReader r(w.finish(), "test");
    std::string msg =
        fatalMessage([&] { r.expectSeries("cooling", "cooling_w"); });
    EXPECT_NE(msg.find("key 'cooling'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ragged"), std::string::npos) << msg;
}

TEST(StateCodecs, SeriesTimesMustIncrease)
{
    CheckpointWriter w;
    w.putVector("s.times", {0.0, 60.0, 60.0});
    w.putVector("s.values", {1.0, 2.0, 3.0});
    CheckpointReader r(w.finish(), "test");
    std::string msg = fatalMessage([&] { r.expectSeries("s", "s"); });
    EXPECT_NE(msg.find("key 's'"), std::string::npos) << msg;
}

TEST(StateCodecs, GuardCountersOfTheWrongLengthAreRejectedByKey)
{
    CheckpointWriter w;
    w.putU64Vector("srv.guard", {1, 2, 3, 4, 5, 6});
    w.put("srv.guard.worst_residual_j", 0.0);
    w.put("srv.guard.worst_residual_t", -1.0);
    CheckpointReader r(w.finish(), "test");
    std::string msg =
        fatalMessage([&] { r.expectCounters("srv.guard"); });
    EXPECT_NE(msg.find("key 'srv.guard'"), std::string::npos) << msg;
}

TEST(StateCodecs, ServerBlockWithForeignWaxIsRejectedByKey)
{
    // A stock server's block that claims a wax charge.
    server::ServerModel stock(server::rd330Spec());
    CheckpointWriter w;
    w.putVector("srv.h", stock.network().enthalpies());
    w.putBool("srv.has_wax", true);
    CheckpointReader r(w.finish(), "test");
    std::string msg =
        fatalMessage([&] { stock.restoreThermalState(r, "srv"); });
    EXPECT_NE(msg.find("key 'srv.has_wax'"), std::string::npos) << msg;
}

TEST(StateCodecs, ServerBlockOfTheWrongNodeCountIsRejectedByKey)
{
    server::ServerModel stock(server::rd330Spec());
    std::vector<double> h = stock.network().enthalpies();
    h.push_back(h.back());
    CheckpointWriter w;
    w.putVector("srv.h", h);
    CheckpointReader r(w.finish(), "test");
    std::string msg =
        fatalMessage([&] { stock.restoreThermalState(r, "srv"); });
    EXPECT_NE(msg.find("key 'srv.h'"), std::string::npos) << msg;
}

TEST(StateCodecs, InjectorRoundTripsMidReplay)
{
    fault::FaultSchedule schedule;
    schedule.add(10.0, fault::FaultKind::ServerCrash, 2);
    schedule.add(20.0, fault::FaultKind::FanFailure, 5);
    schedule.add(30.0, fault::FaultKind::SensorDrift,
                 fault::FaultEvent::noTarget, 1.5);
    schedule.add(40.0, fault::FaultKind::CoolingTrip,
                 fault::FaultEvent::noTarget, 0.5);
    fault::FaultInjector a(schedule, 8, 25.0);
    a.advanceTo(35.0);

    CheckpointWriter w;
    a.save(w, "inj");
    fault::FaultInjector b(schedule, 8, 25.0);
    CheckpointReader r(w.finish(), "test");
    b.restore(r, "inj");
    r.expectEnd();
    EXPECT_EQ(b.eventsApplied(), a.eventsApplied());
    EXPECT_EQ(b.aliveServers(), a.aliveServers());
    EXPECT_FALSE(b.serverAlive(2));
    EXPECT_TRUE(b.fanFailed(5));
    EXPECT_EQ(b.sensorBiasC(), a.sensorBiasC());

    a.advanceTo(50.0);
    b.advanceTo(50.0);
    EXPECT_EQ(b.coolingCapacityFraction(), a.coolingCapacityFraction());
}

/** @return @p doc with its line @p from replaced by @p to, resealed. */
std::string
resealedWith(const std::string &doc, const std::string &from,
             const std::string &to)
{
    std::string body = doc.substr(0, doc.rfind("crc32 "));
    const std::size_t at = body.find("\n" + from + "\n");
    EXPECT_NE(at, std::string::npos) << from;
    body.replace(at + 1, from.size(), to);
    char crc[9];
    std::snprintf(crc, sizeof crc, "%08x", crc32(body));
    return body + "crc32 " + crc + "\n";
}

TEST(StateCodecs, InjectorGapDepthOutsideAnIntIsRejectedByKey)
{
    fault::FaultSchedule schedule;
    fault::FaultInjector a(schedule, 8);
    CheckpointWriter w;
    a.save(w, "inj");
    const std::string doc = w.finish();
    {
        fault::FaultInjector b(schedule, 8);
        CheckpointReader r(resealedWith(doc, "inj.gap_depth = 0",
                                        "inj.gap_depth = 3"),
                           "test");
        b.restore(r, "inj");
        EXPECT_TRUE(b.traceGapActive());
    }
    for (const std::string key : {"inj.gap_depth", "inj.weather_gap_depth"})
        for (const char *bad : {"-1", "2147483648"}) {
            SCOPED_TRACE(key + " = " + bad);
            fault::FaultInjector b(schedule, 8);
            CheckpointReader r(
                resealedWith(doc, key + " = 0", key + " = " + bad), "test");
            const std::string msg =
                fatalMessage([&] { b.restore(r, "inj"); });
            EXPECT_NE(msg.find("key '" + key + "'"), std::string::npos)
                << msg;
        }
}

TEST(StateCodecs, InjectorBitmapOfTheWrongPopulationIsRejectedByKey)
{
    fault::FaultSchedule schedule;
    fault::FaultInjector eight(schedule, 8);
    CheckpointWriter w;
    eight.save(w, "inj");
    fault::FaultInjector four(schedule, 4);
    CheckpointReader r(w.finish(), "test");
    std::string msg = fatalMessage([&] { four.restore(r, "inj"); });
    EXPECT_NE(msg.find("key 'inj.server_down'"), std::string::npos)
        << msg;
}

} // namespace
} // namespace guard
} // namespace tts

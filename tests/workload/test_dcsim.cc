/** @file Tests for the DCSim-style cluster simulator. */

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "guard/checkpoint.hh"
#include "util/error.hh"
#include "util/units.hh"
#include "workload/dcsim.hh"
#include "workload/google_trace.hh"

namespace tts {
namespace workload {
namespace {

/** A flat trace at the given utilization, one hour long. */
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
smallConfig()
{
    DcSimConfig c;
    c.serverCount = 16;
    c.slotsPerServer = 8;
    c.meanServiceTimeS = 10.0;
    c.statsIntervalS = 60.0;
    c.seed = 7;
    return c;
}

TEST(ClusterSim, AchievedUtilizationTracksOffered)
{
    ClusterSim sim(smallConfig());
    auto r = sim.run(flatTrace(0.5));
    // Mean busy-slot fraction should approach the offered load.
    double mean = 0.0;
    for (double u : r.perServerUtilization)
        mean += u;
    mean /= static_cast<double>(r.perServerUtilization.size());
    EXPECT_NEAR(mean, 0.5, 0.05);
}

TEST(ClusterSim, ThroughputMatchesArrivalRate)
{
    auto cfg = smallConfig();
    ClusterSim sim(cfg);
    auto r = sim.run(flatTrace(0.5));
    // Offered: 0.5 * 16 * 8 / 10 = 6.4 jobs/s over 3600 s.
    double expected = 0.5 * 16.0 * 8.0 / 10.0 * 3600.0;
    EXPECT_NEAR(static_cast<double>(r.completedJobs), expected,
                0.08 * expected);
    EXPECT_EQ(r.droppedJobs, 0u);
}

TEST(ClusterSim, RoundRobinKeepsServersUniform)
{
    // The property the paper's representative-server scale-out
    // model relies on.
    ClusterSim sim(smallConfig());
    auto r = sim.run(flatTrace(0.6));
    EXPECT_LT(r.utilizationSpread(), 0.06);
}

TEST(ClusterSim, LatencyNearServiceTimeWhenUnderloaded)
{
    ClusterSim sim(smallConfig());
    auto r = sim.run(flatTrace(0.3));
    // Almost no queueing at 30 % load.
    EXPECT_NEAR(r.latency.mean(), 10.0, 2.0);
}

TEST(ClusterSim, OverloadQueuesAndDrops)
{
    auto cfg = smallConfig();
    cfg.queueCapPerServer = 4;
    ClusterSim sim(cfg);
    // Offered load above capacity; drops must appear.
    WorkloadTrace t;
    t.append(0.0, {0.5, 0.5, 0.5});
    t.append(3600.0, {0.5, 0.5, 0.5});
    auto r = sim.run(t);
    EXPECT_GT(r.droppedJobs, 0u);
    EXPECT_GT(r.latency.mean(), 10.0);
}

TEST(ClusterSim, HigherLoadRaisesLatency)
{
    ClusterSim a(smallConfig()), b(smallConfig());
    auto low = a.run(flatTrace(0.3));
    auto high = b.run(flatTrace(0.9));
    EXPECT_GT(high.latency.mean(), low.latency.mean());
}

TEST(ClusterSim, ClassMixFollowsTrace)
{
    // A trace with 2:1:1 class weights should produce completions in
    // roughly that proportion.
    WorkloadTrace t;
    t.append(0.0, {0.3, 0.15, 0.15});
    t.append(3600.0, {0.3, 0.15, 0.15});
    ClusterSim sim(smallConfig());
    auto r = sim.run(t);
    double total = static_cast<double>(r.completedJobs);
    EXPECT_NEAR(r.completedByClass[0] / total, 0.5, 0.05);
    EXPECT_NEAR(r.completedByClass[1] / total, 0.25, 0.05);
    EXPECT_NEAR(r.completedByClass[2] / total, 0.25, 0.05);
}

TEST(ClusterSim, DeterministicForSameSeed)
{
    ClusterSim a(smallConfig()), b(smallConfig());
    auto ra = a.run(flatTrace(0.5));
    auto rb = b.run(flatTrace(0.5));
    EXPECT_EQ(ra.completedJobs, rb.completedJobs);
    EXPECT_DOUBLE_EQ(ra.latency.mean(), rb.latency.mean());
}

TEST(ClusterSim, UtilizationSeriesFollowsDiurnalTrace)
{
    GoogleTraceParams p;
    p.durationS = units::days(1.0);
    p.sampleIntervalS = 600.0;
    auto trace = makeGoogleTrace(p);

    auto cfg = smallConfig();
    cfg.statsIntervalS = 1800.0;
    ClusterSim sim(cfg);
    auto r = sim.run(trace);
    // Cluster utilization at mid-day must exceed the pre-dawn value.
    EXPECT_GT(r.clusterUtilization.at(units::hours(14.0)),
              r.clusterUtilization.at(units::hours(4.0)) + 0.2);
}

TEST(ClusterSim, RackMetricsAggregateServers)
{
    auto cfg = smallConfig();
    cfg.serversPerRack = 4;     // 16 servers -> 4 racks.
    ClusterSim sim(cfg);
    auto r = sim.run(flatTrace(0.5));
    ASSERT_EQ(r.perRackUtilization.size(), 4u);
    // Each rack's mean equals the mean of its servers.
    double rack0 = 0.0;
    for (int i = 0; i < 4; ++i)
        rack0 += r.perServerUtilization[i];
    EXPECT_NEAR(r.perRackUtilization[0], rack0 / 4.0, 1e-12);
}

TEST(ClusterSim, RackSpreadTighterThanServerSpread)
{
    // Aggregation averages out per-server noise.
    auto cfg = smallConfig();
    cfg.serversPerRack = 8;
    ClusterSim sim(cfg);
    auto r = sim.run(flatTrace(0.6));
    EXPECT_LE(r.rackUtilizationSpread(),
              r.utilizationSpread() + 1e-12);
}

TEST(ClusterSim, PartialLastRack)
{
    auto cfg = smallConfig();
    cfg.serverCount = 10;
    cfg.serversPerRack = 4;     // Racks of 4, 4, 2.
    ClusterSim sim(cfg);
    auto r = sim.run(flatTrace(0.5));
    EXPECT_EQ(r.perRackUtilization.size(), 3u);
}

TEST(ClusterSim, RejectsBadConfig)
{
    DcSimConfig c;
    c.serverCount = 0;
    EXPECT_THROW(ClusterSim sim(c), FatalError);
    c = DcSimConfig{};
    c.meanServiceTimeS = 0.0;
    EXPECT_THROW(ClusterSim sim(c), FatalError);
}

TEST(ClusterSim, RejectsShortTrace)
{
    ClusterSim sim(smallConfig());
    WorkloadTrace t;
    t.append(0.0, {0.1, 0.1, 0.1});
    EXPECT_THROW(sim.run(t), FatalError);
}

void
expectSameResult(const DcSimResult &a, const DcSimResult &b)
{
    EXPECT_EQ(a.clusterUtilization.times(),
              b.clusterUtilization.times());
    EXPECT_EQ(a.clusterUtilization.values(),
              b.clusterUtilization.values());
    EXPECT_EQ(a.throughput.values(), b.throughput.values());
    EXPECT_EQ(a.perServerUtilization, b.perServerUtilization);
    EXPECT_EQ(a.perRackUtilization, b.perRackUtilization);
    EXPECT_EQ(a.completedJobs, b.completedJobs);
    EXPECT_EQ(a.droppedJobs, b.droppedJobs);
    EXPECT_EQ(a.offeredJobs, b.offeredJobs);
    EXPECT_EQ(a.residualJobs, b.residualJobs);
    EXPECT_EQ(a.maxQueueDepth, b.maxQueueDepth);
    EXPECT_EQ(a.completedByServer, b.completedByServer);
    EXPECT_EQ(a.latency.count(), b.latency.count());
    EXPECT_EQ(a.latency.mean(), b.latency.mean());
    EXPECT_EQ(a.latency.max(), b.latency.max());
}

TEST(ClusterSimEngine, PausedRunMatchesUninterruptedBitwise)
{
    auto trace = flatTrace(0.6);
    ClusterSim reference(smallConfig());
    DcSimResult want = reference.run(trace);

    // Same simulation, paused every 100 simulated seconds.
    ClusterSimEngine engine(smallConfig(), trace, nullptr);
    double t_stop = 100.0;
    while (!engine.runUntil(t_stop))
        t_stop += 100.0;
    expectSameResult(engine.take(), want);
}

TEST(ClusterSimEngine, SaveRestoreRoundTripsMidRun)
{
    auto trace = flatTrace(0.7);

    // Run A: pause mid-run, checkpoint, keep going to the end.
    ClusterSimEngine a(smallConfig(), trace, nullptr);
    ASSERT_FALSE(a.runUntil(1700.0));
    guard::CheckpointWriter w;
    a.save(w);
    std::string doc = w.finish();
    ASSERT_TRUE(a.runUntil(
        std::numeric_limits<double>::infinity()));
    DcSimResult want = a.take();

    // Run B: a fresh engine restored from the checkpoint.
    ClusterSimEngine b(smallConfig(), trace, nullptr);
    guard::CheckpointReader r(doc, "test");
    b.restore(r);
    r.expectEnd();
    ASSERT_TRUE(b.runUntil(
        std::numeric_limits<double>::infinity()));
    expectSameResult(b.take(), want);
}

/** @return @p doc with the line of @p key replaced and resealed. */
std::string
withLine(const std::string &doc, const std::string &key,
         const std::string &line)
{
    std::size_t at = doc.find("\n" + key + " = ");
    EXPECT_NE(at, std::string::npos) << key;
    std::size_t end = doc.find('\n', at + 1);
    std::string body = doc.substr(0, at + 1) + line +
        doc.substr(end, doc.rfind("crc32 ") - end);
    char crc[9];
    std::snprintf(crc, sizeof crc, "%08x", guard::crc32(body));
    return body + "crc32 " + crc + "\n";
}

/** A mid-run checkpoint of the small cluster, after 500 s. */
std::string
midRunDocument(const WorkloadTrace &trace)
{
    ClusterSimEngine a(smallConfig(), trace, nullptr);
    EXPECT_FALSE(a.runUntil(500.0));
    guard::CheckpointWriter w;
    a.save(w);
    return w.finish();
}

/** Restore @p doc into a fresh small-cluster engine. */
void
restoreSmall(const WorkloadTrace &trace, const std::string &doc)
{
    ClusterSimEngine b(smallConfig(), trace, nullptr);
    guard::CheckpointReader r(doc, "test");
    b.restore(r);
    r.expectEnd();
}

TEST(ClusterSimEngine, RestoreRejectsCorruptDocument)
{
    auto trace = flatTrace(0.5);
    std::string doc = midRunDocument(trace);
    std::size_t digit = doc.find("rng.s = 4 ");
    ASSERT_NE(digit, std::string::npos);
    doc[digit + 10] = doc[digit + 10] == '1' ? '2' : '1';
    EXPECT_THROW(restoreSmall(trace, doc), FatalError);
}

TEST(ClusterSimEngine, RestoreWantsExactlyOneCursorWord)
{
    auto trace = flatTrace(0.5);
    const std::string doc = midRunDocument(trace);
    // A resealed one-word cursor restores; any other length is an
    // error, not a silent read past the vector.
    restoreSmall(trace, withLine(doc, "balancer", "balancer = 1 7"));
    EXPECT_THROW(
        restoreSmall(trace, withLine(doc, "balancer", "balancer = 2 7 0")),
        FatalError);
    EXPECT_THROW(
        restoreSmall(trace, withLine(doc, "balancer", "balancer = 0")),
        FatalError);
}

TEST(ClusterSimEngine, RestoreWantsAnAliveCountThatMatchesTheAliveSet)
{
    // Dispatch looks up the k-th alive server for k < alive_count; a
    // count above the alive set would walk off its end.
    auto trace = flatTrace(0.5);
    const std::string doc = midRunDocument(trace);
    restoreSmall(trace, withLine(doc, "alive_count", "alive_count = 16"));
    EXPECT_THROW(
        restoreSmall(trace,
                     withLine(doc, "alive_count", "alive_count = 17")),
        FatalError);
    EXPECT_THROW(
        restoreSmall(trace,
                     withLine(doc, "alive_count", "alive_count = 15")),
        FatalError);
}

/** Restore @p doc into a fresh small-cluster engine and run it out. */
void
restoreAndRun(const WorkloadTrace &trace, const std::string &doc)
{
    ClusterSimEngine b(smallConfig(), trace, nullptr);
    guard::CheckpointReader r(doc, "test");
    b.restore(r);
    r.expectEnd();
    b.runUntil(std::numeric_limits<double>::infinity());
}

/** Expect restoring @p doc to raise a FatalError that names @p key. */
void
expectRejectedKey(const WorkloadTrace &trace, const std::string &doc,
                  const std::string &key)
{
    try {
        restoreAndRun(trace, doc);
        ADD_FAILURE() << key << " accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("'" + key + "'"),
                  std::string::npos)
            << e.what();
    }
}

/** @return The in-flight table size of @p doc. */
std::size_t
inflightCount(const std::string &doc)
{
    const std::size_t at = doc.find("\ninflight = ");
    EXPECT_NE(at, std::string::npos);
    return std::stoul(doc.substr(at + 12));
}

TEST(ClusterSimEngine, RestoreWantsDepartureServersInsideTheCluster)
{
    // A departure indexes the epoch and server tables when it fires.
    auto trace = flatTrace(0.5);
    const std::string doc = midRunDocument(trace);
    restoreSmall(trace, withLine(doc, "dep.server", "dep.server = 15"));
    expectRejectedKey(trace, withLine(doc, "dep.server", "dep.server = 16"),
                      "dep.server");
}

TEST(ClusterSimEngine, RestoreWantsDepartureJobsInsideTheInFlightTable)
{
    auto trace = flatTrace(0.5);
    const std::string doc = midRunDocument(trace);
    const std::size_t count = inflightCount(doc);
    const std::string n = std::to_string(count);
    const std::string last = std::to_string(count - 1);
    restoreSmall(trace, withLine(doc, "dep.job", "dep.job = " + last));
    expectRejectedKey(trace, withLine(doc, "dep.job", "dep.job = " + n),
                      "dep.job");
}

TEST(ClusterSimEngine, RestoreWantsFreeIdsInsideTheInFlightTable)
{
    // The next arrival reuses the last free id as its in-flight slot.
    auto trace = flatTrace(0.5);
    const std::string doc = midRunDocument(trace);
    const std::size_t count = inflightCount(doc);
    const std::string n = std::to_string(count);
    const std::string last = std::to_string(count - 1);
    restoreSmall(trace, withLine(doc, "free_ids", "free_ids = 1 " + last));
    expectRejectedKey(trace, withLine(doc, "free_ids", "free_ids = 1 " + n),
                      "free_ids");
}

TEST(ClusterSimEngine, RestoreWantsQueuedJobsWithAKnownIdAndClass)
{
    // An overloaded cluster queues jobs; a queued job's id indexes the
    // in-flight table when it starts, and its class must be one of the
    // three.
    auto trace = flatTrace(1.5);
    const std::string doc = midRunDocument(trace);
    const std::size_t at = doc.find(".job = 4 ");
    ASSERT_NE(at, std::string::npos) << "no queued job at 500 s";
    const std::size_t begin = doc.rfind('\n', at) + 1;
    const std::string key = doc.substr(begin, at + 4 - begin);
    std::istringstream words(doc.substr(at + 7));
    std::string len, id, cls, arrival, service;
    words >> len >> id >> cls >> arrival >> service;
    const std::string n = std::to_string(inflightCount(doc));
    auto job = [&](const std::string &i, const std::string &c) {
        return withLine(doc, key,
                        key + " = 4 " + i + " " + c + " " + arrival +
                            " " + service);
    };
    restoreSmall(trace, job(id, "2"));
    for (const auto &[i, c] :
         {std::pair{n, cls}, std::pair{std::string("-1"), cls},
          std::pair{id + ".5", cls}, std::pair{id, std::string("3")},
          std::pair{id, std::string("0.5")}}) {
        SCOPED_TRACE("id " + i + " class " + c);
        expectRejectedKey(trace, job(i, c), key);
    }
}

TEST(ClusterSimEngine, RestoreWantsKnownInFlightJobClasses)
{
    // A completing job is counted under its class.
    auto trace = flatTrace(0.5);
    const std::string doc = midRunDocument(trace);
    restoreSmall(trace,
                 withLine(doc, "inflight.class", "inflight.class = 2"));
    for (const char *bad : {"3", "-1"})
        expectRejectedKey(
            trace,
            withLine(doc, "inflight.class",
                     std::string("inflight.class = ") + bad),
            "inflight.class");
}

TEST(ClusterSimEngine, RestoreWantsAGapDepthThatFitsAnInt)
{
    // The engine keeps its trace-gap depth at 0 or above in an int.
    auto trace = flatTrace(0.5);
    const std::string doc = midRunDocument(trace);
    restoreSmall(trace, withLine(doc, "gap_depth", "gap_depth = 1"));
    for (const char *bad : {"-1", "2147483648"})
        expectRejectedKey(
            trace,
            withLine(doc, "gap_depth", std::string("gap_depth = ") + bad),
            "gap_depth");
}

} // namespace
} // namespace workload
} // namespace tts

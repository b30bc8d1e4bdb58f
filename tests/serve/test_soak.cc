/**
 * @file
 * Fault-injection soak: one deterministic hostile session through the
 * session mux against a live daemon - duplicated scenario requests
 * interleaved with malformed payloads, oversized and truncated
 * frames, and injected worker crashes - asserting the robustness
 * invariants the serving layer promises:
 *
 *  - zero crashes: the whole session runs to completion;
 *  - every request is answered or cleanly rejected with a typed
 *    error from the degradation ladder;
 *  - every successful reply is bit-identical to a daemon-free
 *    evaluation of the same request (cache hits included);
 *  - the cache snapshot survives a restart, and a corrupted
 *    snapshot is quarantined without losing the service.
 *
 * The same seeded ServeFaultPlan drives the session at 1 and 8
 * workers, so the hostile schedule itself is identical at both
 * widths.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "cache/result_cache.hh"
#include "serve/daemon.hh"
#include "serve/eval.hh"
#include "serve/mux.hh"
#include "session.hh"
#include "util/error.hh"
#include "util/random.hh"

using namespace tts;
using namespace tts::serve;
using namespace tts::servetest;

namespace {

/** The faithful request pool: 16 distinct quick outage studies. */
std::vector<std::string>
requestPool()
{
    std::vector<std::string> docs;
    for (double horizon : {60.0, 90.0, 120.0, 150.0}) {
        for (double util : {0.6, 0.9}) {
            for (double wax : {0.0, 8.0}) {
                Request r;
                r.study = "outage";
                r.servers = 8;
                r.horizonS = horizon;
                r.utilization = util;
                r.waxLiters = wax;
                docs.push_back(writeRequest(r));
            }
        }
    }
    return docs;
}

const char *kMalformedPool[] = {
    "",
    "not json at all",
    "{\"study\": \"astrology\"}",
    "{\"study\": \"coo",
    "{\"servers\": -4}",
    "{\"bogus\": 1}",
    "{\"util\": 2}",
    "\x01\x02\xff\xfe",
};

std::string
tempPath(const std::string &name)
{
    const std::string path = testing::TempDir() + "/" + name;
    std::remove(path.c_str());
    std::remove((path + ".corrupt").c_str());
    return path;
}

void
runSoak(std::size_t workers)
{
    const std::size_t kRequests = 120;
    ServeFaultProfile profile;
    profile.workerCrashPerRequest = 0.12;
    profile.workerCrashAttempts = 1;
    profile.malformedPerRequest = 0.10;
    profile.oversizedPerRequest = 0.05;
    profile.truncatedPerRequest = 0.05;
    profile.slowClientPerRequest = 0.05;
    profile.slowClientStallMs = 0.0;
    profile.seed = 0x50a50a50; // shared across widths: same schedule
    const ServeFaultPlan plan =
        ServeFaultPlan::generate(profile, kRequests);
    ASSERT_GT(plan.countOf(RequestFault::Malformed), 0u);
    ASSERT_GT(plan.countOf(RequestFault::Oversized), 0u);
    ASSERT_GT(plan.countOf(RequestFault::Truncated), 0u);
    ASSERT_GT(plan.crashedRequests(), 0u);

    // Daemon-free baseline for the bit-identity assertion.
    const std::vector<std::string> pool = requestPool();
    std::vector<Result> baseline;
    for (const std::string &doc : pool)
        baseline.push_back(evaluate(parseRequest(doc)));

    DaemonConfig config;
    config.workers = workers;
    config.queueCapacity = 8;
    config.retryBudget = 3;
    config.retryBackoffBaseMs = 0.2;
    config.cache.capacity = 64;
    config.cache.path = tempPath(
        "tts_serve_soak_w" + std::to_string(workers) + ".ckpt");
    Daemon daemon(config, plan);
    EXPECT_EQ(daemon.cacheLoadOutcome(), cache::CacheLoadOutcome::Fresh);

    // Build the hostile byte stream.  slots[k] records which pool
    // entry reply k must answer (-1 for injected garbage, whose
    // reply must be a typed malformed error).  Truncated frames
    // desync a stream by design, so each gets its own session
    // after the main one.
    FrameLimits limits;
    limits.maxPayloadBytes = 2048;
    Rng pick = Rng::forStream(profile.seed, 9001);
    std::string wire;
    std::vector<int> slots;
    std::size_t truncated_sessions = 0;
    for (std::size_t i = 0; i < kRequests; ++i) {
        switch (plan.requestFault(i)) {
          case RequestFault::None:
          case RequestFault::SlowClient:
          // This profile never draws Disconnect (the socket soak in
          // test_mux.cc covers it); keep the stream faithful.
          case RequestFault::Disconnect: {
            const int which =
                static_cast<int>(pick.uniformInt(pool.size()));
            wire += encodeFrame(pool[static_cast<std::size_t>(which)]);
            slots.push_back(which);
            break;
          }
          case RequestFault::Malformed:
            wire += encodeFrame(
                kMalformedPool[i % std::size(kMalformedPool)]);
            slots.push_back(-1);
            break;
          case RequestFault::Oversized:
            wire += encodeFrame(
                std::string(limits.maxPayloadBytes + 32, 'x'));
            slots.push_back(-1);
            break;
          case RequestFault::Truncated:
            ++truncated_sessions;
            break;
        }
    }

    MuxOptions options;
    options.limits = limits;
    // Let the client overrun admission so the overloaded rung of
    // the ladder is reachable under real pressure.
    options.pipelineWindow = 32;
    const SessionRun run = serveWire(daemon, options, wire, true);
    EXPECT_EQ(run.stats.framesMalformed,
              plan.countOf(RequestFault::Oversized));
    EXPECT_EQ(run.stats.repliesWritten, slots.size());

    // Every slot got exactly one reply, in order, and each reply is
    // either bit-identical to the baseline or a typed rejection.
    ASSERT_EQ(run.replies.size(), slots.size());
    std::size_t ok_replies = 0;
    std::size_t overloaded = 0;
    for (std::size_t k = 0; k < slots.size(); ++k) {
        const Reply &r = run.replies[k];
        if (slots[k] < 0) {
            ASSERT_FALSE(r.ok) << "garbage slot " << k
                               << " got an ok reply";
            // Usually rejected as malformed - but garbage that
            // lands while the queue is full is shed before it is
            // ever parsed, which is just as clean an answer.
            EXPECT_TRUE(r.error == ErrorKind::Malformed ||
                        r.error == ErrorKind::Overloaded)
                << "slot " << k << ": " << r.detail;
            if (r.error == ErrorKind::Overloaded)
                ++overloaded;
            continue;
        }
        if (r.ok) {
            ++ok_replies;
            EXPECT_EQ(
                r.result,
                baseline[static_cast<std::size_t>(slots[k])])
                << "reply " << k
                << " is not bit-identical to a fresh evaluation";
        } else {
            // The only legitimate rejection of a faithful request
            // in this session is admission-control shedding: no
            // deadlines are set and the crash depth (1) is inside
            // the retry budget (3).
            EXPECT_EQ(r.error, ErrorKind::Overloaded)
                << "reply " << k << ": " << r.detail;
            ++overloaded;
        }
    }
    EXPECT_EQ(run.tail.status, FrameStatus::Eof);
    EXPECT_GT(ok_replies, 0u);

    // Truncated frames get their own sessions: each is answered
    // with a typed error, then the (unrecoverable) session ends.
    for (std::size_t t = 0; t < truncated_sessions; ++t) {
        const SessionRun bad = serveWire(
            daemon, options, "tts-frame 64\nonly-a-few-bytes", true);
        EXPECT_EQ(bad.stats.repliesWritten, 1u);
        ASSERT_EQ(bad.replies.size(), 1u);
        ASSERT_FALSE(bad.replies[0].ok);
        EXPECT_EQ(bad.replies[0].error, ErrorKind::Malformed);
    }

    // Accounting invariants: everything submitted was answered,
    // nothing fell off the retry ladder, and the cache never
    // re-evaluated a resident entry.
    const DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.repliesOk + stats.repliesError,
              stats.submitted);
    EXPECT_EQ(stats.shed, static_cast<std::uint64_t>(overloaded));
    EXPECT_EQ(stats.workerFailed, 0u);
    EXPECT_EQ(stats.deadlineExceeded, 0u);
    EXPECT_LE(stats.evaluations, pool.size());
    const auto cache = daemon.cacheCounters();
    EXPECT_EQ(cache.collisions, 0u);
    EXPECT_GT(cache.hits + stats.coalesced, 0u);

    // Restart: the snapshot persisted on shutdown warms the next
    // daemon, whose first answer is a cache hit bit-identical to
    // the baseline.
    daemon.shutdown();
    {
        Daemon warmed(config);
        EXPECT_EQ(warmed.cacheLoadOutcome(),
                  cache::CacheLoadOutcome::Loaded);
        const Reply r = warmed.call(pool.front());
        ASSERT_TRUE(r.ok) << r.detail;
        EXPECT_TRUE(r.cacheHit);
        EXPECT_EQ(r.result, baseline.front());
    }

    // Corrupt the snapshot: the next daemon quarantines it and
    // still serves correct (freshly evaluated) answers.
    {
        std::string doc;
        {
            std::ifstream f(config.cache.path, std::ios::binary);
            std::ostringstream buf;
            buf << f.rdbuf();
            doc = buf.str();
        }
        ASSERT_FALSE(doc.empty());
        doc[doc.size() / 2] ^= 0x20;
        std::ofstream f(config.cache.path, std::ios::binary);
        f << doc;
    }
    {
        Daemon scarred(config);
        EXPECT_EQ(scarred.cacheLoadOutcome(),
                  cache::CacheLoadOutcome::Quarantined);
        const Reply r = scarred.call(pool.front());
        ASSERT_TRUE(r.ok) << r.detail;
        EXPECT_FALSE(r.cacheHit);
        EXPECT_EQ(r.result, baseline.front());
    }
    std::remove(config.cache.path.c_str());
    std::remove((config.cache.path + ".corrupt").c_str());
}

} // namespace

TEST(ServeSoak, ClientDisconnectMidPipelineDoesNotPoisonTheWorkers)
{
    // Eight requests pipelined four deep on a stdio-shaped session;
    // the client closes its reply pipe before the first reply.  The
    // session must end cleanly, every accepted evaluation must still
    // complete (warming the shared cache), and the worker pool must
    // stay healthy.
    const std::vector<std::string> pool = requestPool();
    DaemonConfig config;
    config.workers = 4;
    config.queueCapacity = 16;
    Daemon daemon(config);

    std::signal(SIGPIPE, SIG_IGN); // The failed write marks it dead.
    int requests[2];
    int replies[2];
    ASSERT_EQ(::pipe(requests), 0);
    ASSERT_EQ(::pipe(replies), 0);
    std::string wire;
    for (std::size_t i = 0; i < 8; ++i)
        wire += encodeFrame(pool[i]);
    ASSERT_TRUE(writeAll(requests[1], wire));
    ::close(requests[1]);
    ::close(replies[0]); // The client is gone before any reply.

    MuxOptions options;
    options.pipelineWindow = 4;
    options.exitAfterSessions = 1;
    SessionMux mux(daemon, options);
    mux.adopt(requests[0], replies[1]);
    mux.run();
    const MuxStats ms = mux.stats();
    EXPECT_EQ(ms.framesOk, 4u) << "kept reading a dead client";
    EXPECT_EQ(ms.repliesWritten, 0u);
    EXPECT_EQ(ms.repliesDiscarded, 4u);

    // Nothing was orphaned: every accepted request was answered
    // (into the void), none fell off the ladder.
    daemon.drain();
    const DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.submitted, 4u);
    EXPECT_EQ(stats.repliesOk + stats.repliesError,
              stats.submitted);
    EXPECT_EQ(stats.workerFailed, 0u);

    // The disconnected client's in-flight work warmed the shared
    // cache for everyone else...
    for (std::size_t i = 0; i < 4; ++i) {
        const Reply r = daemon.call(pool[i]);
        ASSERT_TRUE(r.ok) << r.detail;
        EXPECT_TRUE(r.cacheHit)
            << "request " << i
            << " was dropped instead of completed";
    }
    // ...and the pool still serves fresh work.
    const Reply fresh = daemon.call(pool[8]);
    ASSERT_TRUE(fresh.ok) << fresh.detail;
    EXPECT_FALSE(fresh.cacheHit);
}

TEST(ServeSoak, HostileSessionHoldsInvariantsWithOneWorker)
{
    runSoak(1);
}

TEST(ServeSoak, HostileSessionHoldsInvariantsWithEightWorkers)
{
    runSoak(8);
}

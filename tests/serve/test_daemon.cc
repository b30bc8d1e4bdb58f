/**
 * @file
 * Daemon behavior tests: the degradation ladder (cache hit,
 * coalescing, deadline, shed, retry, worker_failed, shutdown),
 * cache-hit bit-identity with fresh evaluations at 1 and 8 workers,
 * and the ordered reply stream.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/daemon.hh"
#include "serve/eval.hh"
#include "session.hh"
#include "util/error.hh"
#include "util/random.hh"
#include "util/stats.hh"

using namespace tts;
using namespace tts::serve;
using namespace tts::servetest;

namespace {

/** A fast outage request (seconds of sim time, ms of wall time). */
std::string
quickRequest(double horizon_s = 120.0, double util = 0.9,
             double wax_l = 0.0)
{
    Request r;
    r.study = "outage";
    r.servers = 8;
    r.horizonS = horizon_s;
    r.utilization = util;
    r.waxLiters = wax_l;
    return writeRequest(r);
}

/** Plan where the first `crashed` sequences fail `attempts` times. */
ServeFaultPlan
crashPlan(std::size_t crashed, std::size_t attempts)
{
    ServeFaultProfile profile;
    profile.workerCrashPerRequest = 1.0;
    profile.workerCrashAttempts = attempts;
    return ServeFaultPlan::generate(profile, crashed);
}

/** Wait until the daemon's worker is busy retrying (it popped the
 *  blocker job and entered its backoff sleep). */
void
awaitWorkerBusy(Daemon &daemon)
{
    for (int spin = 0; spin < 2000; ++spin) {
        if (daemon.stats().retries >= 1)
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    FAIL() << "worker never picked up the blocker job";
}

} // namespace

TEST(ServeDaemon, AnswersAQuickRequest)
{
    DaemonConfig config;
    config.workers = 2;
    Daemon daemon(config);
    const Reply reply = daemon.call(quickRequest());
    ASSERT_TRUE(reply.ok) << reply.detail;
    EXPECT_FALSE(reply.cacheHit);
    EXPECT_EQ(reply.fingerprintValue,
              fingerprint(parseRequest(quickRequest())));
    EXPECT_EQ(reply.result.count("outage.ride_with_wax_s"), 1u);
    EXPECT_GT(reply.evalMs, 0.0);
    const DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.submitted, 1u);
    EXPECT_EQ(stats.repliesOk, 1u);
    EXPECT_EQ(stats.evaluations, 1u);
}

TEST(ServeDaemon, CacheHitIsBitIdenticalToTheFreshEvaluation)
{
    DaemonConfig config;
    config.workers = 2;
    Daemon daemon(config);
    const Reply fresh = daemon.call(quickRequest());
    const Reply hit = daemon.call(quickRequest());
    ASSERT_TRUE(fresh.ok);
    ASSERT_TRUE(hit.ok);
    EXPECT_FALSE(fresh.cacheHit);
    EXPECT_TRUE(hit.cacheHit);
    EXPECT_EQ(hit.evalMs, 0.0);
    // Bit-identity: the maps compare equal double-for-double.
    EXPECT_EQ(hit.result, fresh.result);
    // And both match a direct, daemon-free evaluation.
    EXPECT_EQ(fresh.result,
              evaluate(parseRequest(quickRequest())));
    EXPECT_EQ(daemon.stats().evaluations, 1u);
}

TEST(ServeDaemon, ResultsIdenticalAtOneAndEightWorkers)
{
    std::vector<std::string> docs = {
        quickRequest(120.0, 0.9, 0.0),
        quickRequest(120.0, 0.9, 8.0),
        quickRequest(180.0, 0.6, 0.0),
    };
    std::vector<Result> at1, at8;
    {
        DaemonConfig config;
        config.workers = 1;
        Daemon daemon(config);
        for (const auto &doc : docs) {
            Reply r = daemon.call(doc);
            ASSERT_TRUE(r.ok) << r.detail;
            at1.push_back(r.result);
        }
    }
    {
        DaemonConfig config;
        config.workers = 8;
        Daemon daemon(config);
        for (const auto &doc : docs) {
            Reply r = daemon.call(doc);
            ASSERT_TRUE(r.ok) << r.detail;
            at8.push_back(r.result);
        }
    }
    EXPECT_EQ(at1, at8);
}

TEST(ServeDaemon, RepeatedDocumentsHitTheCacheWithinTheLatencyBudget)
{
    // 96 sequential calls drawn uniformly from 16 quick outage
    // documents.  After its first evaluation every further draw of a
    // document is a hit, so the hit rate lands near 1 - 16/96.  A hit
    // is a lookup plus a snapshot copy and must never cost anything
    // close to an evaluation.
    std::vector<std::string> pool;
    for (double horizon : {60.0, 90.0, 120.0, 150.0})
        for (double util : {0.6, 0.9})
            for (double wax : {0.0, 8.0})
                pool.push_back(quickRequest(horizon, util, wax));
    const std::size_t calls = 96;

    DaemonConfig config;
    config.workers = 4;
    config.queueCapacity = 2 * calls;
    config.cache.capacity = 2 * pool.size();
    Daemon daemon(config);

    Rng pick = Rng::forStream(0xbe9c5e, 7);
    std::size_t ok = 0;
    std::vector<double> hit_ms;
    for (std::size_t i = 0; i < calls; ++i) {
        const std::string &doc = pool[pick.uniformInt(pool.size())];
        const auto t0 = std::chrono::steady_clock::now();
        const Reply r = daemon.call(doc);
        const double ms = std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0).count();
        if (r.ok)
            ++ok;
        if (r.cacheHit)
            hit_ms.push_back(ms);
    }
    const double hit_rate =
        static_cast<double>(daemon.cacheCounters().hits +
                            daemon.stats().coalesced) /
        static_cast<double>(calls);

    EXPECT_EQ(ok, calls);
    EXPECT_GE(hit_rate, 0.5);
    ASSERT_FALSE(hit_ms.empty());
    EXPECT_LE(percentile(hit_ms, 99.0), 50.0);
}

TEST(ServeDaemon, MalformedRequestGetsATypedReplyAndServiceContinues)
{
    DaemonConfig config;
    config.workers = 1;
    Daemon daemon(config);
    const Reply bad = daemon.call("{\"study\": \"astrology\"}");
    ASSERT_FALSE(bad.ok);
    EXPECT_EQ(bad.error, ErrorKind::Malformed);
    EXPECT_NE(bad.detail.find("study"), std::string::npos);
    const Reply good = daemon.call(quickRequest());
    EXPECT_TRUE(good.ok);
    EXPECT_EQ(daemon.stats().malformed, 1u);
}

TEST(ServeDaemon, UnknownScenarioIsMalformedNotWorkerFailed)
{
    DaemonConfig config;
    config.workers = 1;
    Daemon daemon(config);
    Request r;
    r.study = "resilience";
    r.scenario = "volcano";
    const Reply reply = daemon.call(writeRequest(r));
    ASSERT_FALSE(reply.ok);
    EXPECT_EQ(reply.error, ErrorKind::Malformed);
    EXPECT_NE(reply.detail.find("volcano"), std::string::npos);
}

TEST(ServeDaemon, TransientCrashIsRetriedWithinTheBudget)
{
    DaemonConfig config;
    config.workers = 1;
    config.retryBudget = 3;
    config.retryBackoffBaseMs = 0.1;
    // Sequence 0 fails its first attempt, then succeeds.
    Daemon daemon(config, crashPlan(1, 1));
    const Reply reply = daemon.call(quickRequest());
    ASSERT_TRUE(reply.ok) << reply.detail;
    const DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.retries, 1u);
    EXPECT_EQ(stats.evaluations, 1u);
    EXPECT_EQ(stats.workerFailed, 0u);
}

TEST(ServeDaemon, CrashPastTheBudgetIsWorkerFailed)
{
    DaemonConfig config;
    config.workers = 1;
    config.retryBudget = 2;
    config.retryBackoffBaseMs = 0.1;
    // Sequence 0 fails five attempts - more than the budget allows.
    Daemon daemon(config, crashPlan(1, 5));
    const Reply reply = daemon.call(quickRequest());
    ASSERT_FALSE(reply.ok);
    EXPECT_EQ(reply.error, ErrorKind::WorkerFailed);
    EXPECT_NE(reply.detail.find("injected worker crash"),
              std::string::npos);
    EXPECT_EQ(daemon.stats().workerFailed, 1u);
    EXPECT_EQ(daemon.stats().retries, 2u);
    // The failure was per-request: the next request (sequence 1,
    // beyond the plan) runs clean.
    EXPECT_TRUE(daemon.call(quickRequest(150.0)).ok);
}

TEST(ServeDaemon, OverCapacitySubmitsAreShedWithTypedReplies)
{
    DaemonConfig config;
    config.workers = 1;
    config.queueCapacity = 1;
    config.retryBudget = 8;
    config.retryBackoffBaseMs = 30.0;
    // The blocker (sequence 0) keeps the only worker busy in
    // retry-backoff sleeps (30+60+120 ms) while we overfill the
    // queue.
    Daemon daemon(config, crashPlan(1, 3));
    auto blocker = daemon.submit(quickRequest());
    awaitWorkerBusy(daemon);
    auto queued = daemon.submit(quickRequest(130.0));
    auto shed1 = daemon.submit(quickRequest(140.0));
    auto shed2 = daemon.submit(quickRequest(150.0));
    const Reply s1 = shed1.get();
    const Reply s2 = shed2.get();
    ASSERT_FALSE(s1.ok);
    EXPECT_EQ(s1.error, ErrorKind::Overloaded);
    EXPECT_NE(s1.detail.find("capacity 1"), std::string::npos);
    EXPECT_EQ(s2.error, ErrorKind::Overloaded);
    EXPECT_TRUE(blocker.get().ok);
    EXPECT_TRUE(queued.get().ok);
    const DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.shed, 2u);
    EXPECT_EQ(stats.accepted, 2u);
    EXPECT_EQ(stats.repliesOk + stats.repliesError,
              stats.submitted);
}

TEST(ServeDaemon, ExpiredDeadlineIsRejectedBeforeEvaluation)
{
    DaemonConfig config;
    config.workers = 1;
    config.queueCapacity = 8;
    config.retryBudget = 8;
    config.retryBackoffBaseMs = 30.0;
    Daemon daemon(config, crashPlan(1, 3));
    auto blocker = daemon.submit(quickRequest());
    awaitWorkerBusy(daemon);
    // Queued behind the blocker with a 1 microsecond deadline: by
    // the time a worker frees up it has long expired.
    Request r = parseRequest(quickRequest(140.0));
    r.deadlineMs = 0.001;
    auto late = daemon.submit(writeRequest(r));
    const Reply reply = late.get();
    ASSERT_FALSE(reply.ok);
    EXPECT_EQ(reply.error, ErrorKind::DeadlineExceeded);
    EXPECT_EQ(reply.fingerprintValue, fingerprint(r));
    EXPECT_TRUE(blocker.get().ok);
    EXPECT_EQ(daemon.stats().deadlineExceeded, 1u);
    EXPECT_EQ(daemon.stats().evaluations, 1u);
}

TEST(ServeDaemon, CachedAnswersAreServedEvenPastTheDeadline)
{
    DaemonConfig config;
    config.workers = 1;
    Daemon daemon(config);
    ASSERT_TRUE(daemon.call(quickRequest()).ok);
    // Deadlines bound time-to-evaluate; a cached copy is free.
    Request r = parseRequest(quickRequest());
    r.deadlineMs = 0.0000001;
    const Reply reply = daemon.call(writeRequest(r));
    ASSERT_TRUE(reply.ok) << reply.detail;
    EXPECT_TRUE(reply.cacheHit);
}

TEST(ServeDaemon, IdenticalInFlightRequestsCoalesceToOneEvaluation)
{
    DaemonConfig config;
    config.workers = 4;
    config.retryBudget = 4;
    config.retryBackoffBaseMs = 40.0;
    // The leader (sequence 0) spends >= 40 ms in backoff before its
    // successful attempt - a wide window for the duplicates to land
    // on other workers and join its flight.
    Daemon daemon(config, crashPlan(1, 1));
    std::vector<std::future<Reply>> futures;
    for (int i = 0; i < 4; ++i)
        futures.push_back(daemon.submit(quickRequest()));
    std::vector<Reply> replies;
    for (auto &f : futures)
        replies.push_back(f.get());
    for (const Reply &r : replies) {
        ASSERT_TRUE(r.ok) << r.detail;
        EXPECT_EQ(r.result, replies.front().result);
    }
    const DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.evaluations, 1u)
        << "duplicates re-evaluated instead of coalescing";
    // Everyone but the leader saw a shared answer.
    std::size_t shared = 0;
    for (const Reply &r : replies)
        if (r.cacheHit)
            ++shared;
    EXPECT_EQ(shared, 3u);
}

TEST(ServeDaemon, ShutdownAnswersEverythingThenRejectsNewWork)
{
    DaemonConfig config;
    config.workers = 2;
    Daemon daemon(config);
    std::vector<std::future<Reply>> futures;
    for (int i = 0; i < 6; ++i)
        futures.push_back(
            daemon.submit(quickRequest(100.0 + 10.0 * i)));
    daemon.shutdown();
    for (auto &f : futures)
        EXPECT_TRUE(f.get().ok);
    const Reply late = daemon.call(quickRequest());
    ASSERT_FALSE(late.ok);
    EXPECT_EQ(late.error, ErrorKind::Shutdown);
    const DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.repliesOk + stats.repliesError,
              stats.submitted);
}

TEST(ServeDaemon, OptimizeStudyIsServedAndMemoizedLikeAnyOther)
{
    // The new "optimize" request kind: a trimmed tts::opt search
    // answered through the same unified cache as every study.
    Request r;
    r.study = "optimize";
    r.servers = 8;
    r.days = 0.25;
    r.budget = 4;
    const std::string doc = writeRequest(r);
    const Result baseline = evaluate(parseRequest(doc));

    DaemonConfig config;
    config.workers = 2;
    Daemon daemon(config);
    const Reply fresh = daemon.call(doc);
    ASSERT_TRUE(fresh.ok) << fresh.detail;
    EXPECT_FALSE(fresh.cacheHit);
    EXPECT_EQ(fresh.result.count("opt.best_cost"), 1u);
    EXPECT_EQ(fresh.result.count("opt.melt_c"), 1u);
    EXPECT_EQ(fresh.result, baseline);
    const Reply memo = daemon.call(doc);
    ASSERT_TRUE(memo.ok);
    EXPECT_TRUE(memo.cacheHit);
    EXPECT_EQ(memo.result, baseline);
    EXPECT_EQ(daemon.stats().evaluations, 1u);

    // Different search knobs are a different cache line.
    Request wider = r;
    wider.budget = 6;
    const Reply other = daemon.call(writeRequest(wider));
    ASSERT_TRUE(other.ok) << other.detail;
    EXPECT_FALSE(other.cacheHit);
}

TEST(ServeDaemon, FutureProtoGetsATypedUnsupportedVersionReply)
{
    DaemonConfig config;
    config.workers = 1;
    Daemon daemon(config);
    const Reply reply =
        daemon.call("{\"study\": \"outage\", \"proto\": 2}");
    ASSERT_FALSE(reply.ok);
    EXPECT_EQ(reply.error, ErrorKind::UnsupportedVersion);
    EXPECT_NE(reply.detail.find("proto"), std::string::npos);
    // Distinct from malformed: the counters tell operators clients
    // are ahead of the daemon, not broken.
    const DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.unsupportedVersion, 1u);
    EXPECT_EQ(stats.malformed, 0u);
    EXPECT_EQ(stats.toMap().at("serve.unsupported_version"), 1.0);
    // Service continues, and explicit proto 1 is just v1.
    const Reply v1 = daemon.call(
        "{\"study\": \"outage\", \"servers\": 8, "
        "\"horizon_s\": 120, \"proto\": 1}");
    EXPECT_TRUE(v1.ok) << v1.detail;
}

TEST(ServeDaemon, SubmitAsyncDeliversTheReplyThroughTheCallback)
{
    DaemonConfig config;
    config.workers = 2;
    Daemon daemon(config);
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Reply> got;
    const std::size_t n = 4;
    for (std::size_t i = 0; i < n; ++i)
        daemon.submitAsync(
            quickRequest(100.0 + 10.0 * i), [&](Reply reply) {
                std::lock_guard<std::mutex> lock(mu);
                got.push_back(std::move(reply));
                cv.notify_all();
            });
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60),
                            [&] { return got.size() == n; }));
    for (const Reply &r : got)
        EXPECT_TRUE(r.ok) << r.detail;
    // Rejections (here: shutdown) ride the same callback path.
    daemon.shutdown();
    bool called = false;
    daemon.submitAsync(quickRequest(), [&](Reply reply) {
        called = true;
        EXPECT_FALSE(reply.ok);
        EXPECT_EQ(reply.error, ErrorKind::Shutdown);
    });
    EXPECT_TRUE(called);
}

TEST(ServeDaemon, StatsMapUsesTheServeNamespace)
{
    DaemonConfig config;
    config.workers = 1;
    Daemon daemon(config);
    daemon.call(quickRequest());
    const auto map = daemon.stats().toMap();
    EXPECT_EQ(map.at("serve.submitted"), 1.0);
    EXPECT_EQ(map.at("serve.replies_ok"), 1.0);
    EXPECT_EQ(map.count("serve.shed"), 1u);
    EXPECT_EQ(map.count("serve.queue_peak"), 1u);
}

// The ordered reply stream: one stdio-shaped session (a request pipe
// in, a reply pipe out) through the SessionMux, as `tts_serve stdio`
// runs it.

TEST(ServeStream, RepliesArriveInRequestOrderWithTypedErrors)
{
    DaemonConfig config;
    config.workers = 2;
    Daemon daemon(config);
    const std::string wire = encodeFrame(quickRequest()) +
        encodeFrame("this is not json") +
        encodeFrame(quickRequest()); // duplicate: cache or coalesce
    const SessionRun run = serveWire(daemon, MuxOptions{}, wire);
    EXPECT_EQ(run.stats.framesOk, 3u);
    EXPECT_EQ(run.stats.framesMalformed, 0u);
    EXPECT_EQ(run.stats.repliesWritten, 3u);

    ASSERT_EQ(run.replies.size(), 3u);
    EXPECT_TRUE(run.replies[0].ok);
    ASSERT_FALSE(run.replies[1].ok);
    EXPECT_EQ(run.replies[1].error, ErrorKind::Malformed);
    EXPECT_TRUE(run.replies[2].ok);
    EXPECT_EQ(run.replies[2].result, run.replies[0].result);
    EXPECT_EQ(run.tail.status, FrameStatus::Eof);
}

TEST(ServeStream, OversizedFrameGetsAnErrorReplyAndServiceContinues)
{
    DaemonConfig config;
    config.workers = 1;
    Daemon daemon(config);
    MuxOptions options;
    options.limits.maxPayloadBytes = 512;
    const std::string wire = "tts-frame 1000\n" +
        std::string(1000, 'x') + encodeFrame(quickRequest());
    const SessionRun run = serveWire(daemon, options, wire);
    EXPECT_EQ(run.stats.framesMalformed, 1u);
    EXPECT_EQ(run.stats.framesOk, 1u);
    ASSERT_EQ(run.replies.size(), 2u);
    ASSERT_FALSE(run.replies[0].ok);
    EXPECT_EQ(run.replies[0].error, ErrorKind::Malformed);
    EXPECT_TRUE(run.replies[1].ok) << run.replies[1].detail;
    EXPECT_EQ(run.tail.status, FrameStatus::Eof);
}

TEST(ServeStream, UnrecoverableFrameEndsTheSessionAfterTheReply)
{
    DaemonConfig config;
    config.workers = 1;
    Daemon daemon(config);
    // Truncated: unrecoverable.  Nothing after it is read.
    const std::string wire = encodeFrame(quickRequest()) +
        "tts-frame 50\nshort";
    const SessionRun run = serveWire(daemon, MuxOptions{}, wire);
    EXPECT_EQ(run.stats.repliesWritten, 2u);
    ASSERT_EQ(run.replies.size(), 2u);
    EXPECT_TRUE(run.replies[0].ok);
    ASSERT_FALSE(run.replies[1].ok);
    EXPECT_EQ(run.replies[1].error, ErrorKind::Malformed);
    EXPECT_NE(run.replies[1].detail.find("5 of 50 declared bytes"),
              std::string::npos)
        << run.replies[1].detail;
    EXPECT_EQ(run.tail.status, FrameStatus::Eof);
}

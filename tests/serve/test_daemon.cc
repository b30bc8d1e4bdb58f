/**
 * @file
 * Daemon behavior tests: the degradation ladder (cache hit,
 * coalescing, deadline, shed, worker_failed, shutdown), cache-hit
 * bit-identity with fresh evaluations at 1 and 8 workers, and the
 * ordered reply stream.  A ladder test that needs a busy worker holds
 * it inside a stand-in evaluator until the test opens a latch.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <latch>
#include <mutex>
#include <stdexcept>
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

/**
 * A stand-in evaluator that holds every call on a latch until the
 * test opens it, then evaluates for real.  Declare it before the
 * Daemon, which calls it until its workers are joined, and open it
 * before any assertion can end the test: a held worker would stall
 * the daemon's shutdown.
 */
class HeldEvaluator
{
  public:
    Evaluator evaluator()
    {
        return [this](const Request &req) {
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++held_;
            }
            cv_.notify_all();
            gate_.wait();
            return evaluate(req);
        };
    }

    /** @return Whether `n` calls entered within a generous bound. */
    bool awaitHeld(std::size_t n)
    {
        std::unique_lock<std::mutex> lock(mu_);
        return cv_.wait_for(lock, std::chrono::seconds(60),
                            [&] { return held_ >= n; });
    }

    /** Let every held call, and every later one, evaluate. */
    void open()
    {
        if (!opened_.exchange(true))
            gate_.count_down();
    }

  private:
    std::latch gate_{1};
    std::atomic<bool> opened_{false};
    std::mutex mu_;
    std::condition_variable cv_;
    std::size_t held_ = 0;
};

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

TEST(ServeDaemon, EvaluationCrashIsWorkerFailed)
{
    DaemonConfig config;
    config.workers = 1;
    // The first evaluation dies with an untyped exception; every
    // later one runs clean.
    std::atomic<int> calls{0};
    Daemon daemon(config, [&calls](const Request &req) {
        if (calls++ == 0)
            throw std::runtime_error("stand-in worker crash");
        return evaluate(req);
    });
    const Reply reply = daemon.call(quickRequest());
    ASSERT_FALSE(reply.ok);
    EXPECT_EQ(reply.error, ErrorKind::WorkerFailed);
    EXPECT_NE(reply.detail.find("stand-in worker crash"),
              std::string::npos);
    EXPECT_EQ(daemon.stats().workerFailed, 1u);
    // A miss is evaluated once: nothing retried the crash.
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(daemon.stats().retries, 0u);
    // The failure was per-request: the next request runs clean.
    EXPECT_TRUE(daemon.call(quickRequest(150.0)).ok);
}

TEST(ServeDaemon, OverCapacitySubmitsAreShedWithTypedReplies)
{
    DaemonConfig config;
    config.workers = 1;
    config.queueCapacity = 1;
    // The blocker keeps the only worker held in its evaluation while
    // we overfill the queue.
    HeldEvaluator held;
    Daemon daemon(config, held.evaluator());
    auto blocker = daemon.submit(quickRequest());
    const bool busy = held.awaitHeld(1);
    auto queued = daemon.submit(quickRequest(130.0));
    auto shed1 = daemon.submit(quickRequest(140.0));
    auto shed2 = daemon.submit(quickRequest(150.0));
    const Reply s1 = shed1.get();
    const Reply s2 = shed2.get();
    held.open();
    ASSERT_TRUE(busy) << "worker never picked up the blocker job";
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
    HeldEvaluator held;
    Daemon daemon(config, held.evaluator());
    auto blocker = daemon.submit(quickRequest());
    const bool busy = held.awaitHeld(1);
    // Queued behind the held blocker with a 1 microsecond deadline:
    // the worker frees up only after the blocker's whole evaluation,
    // and by then it has long expired.
    Request r = parseRequest(quickRequest(140.0));
    r.deadlineMs = 0.001;
    auto late = daemon.submit(writeRequest(r));
    held.open();
    ASSERT_TRUE(busy) << "worker never picked up the blocker job";
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
    // The leader is held in its evaluation until each duplicate has
    // missed the cache.  Its flight stays registered while it is
    // held, so every duplicate past its miss joins that flight.
    HeldEvaluator held;
    Daemon daemon(config, held.evaluator());
    std::vector<std::future<Reply>> futures;
    for (int i = 0; i < 4; ++i)
        futures.push_back(daemon.submit(quickRequest()));
    // Four first lookups plus the leader's re-check under its flight.
    const std::uint64_t all_missed = 5;
    bool joined = held.awaitHeld(1);
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (joined && daemon.cacheCounters().misses < all_missed) {
        if (std::chrono::steady_clock::now() > give_up)
            joined = false;
        std::this_thread::yield();
    }
    held.open();
    ASSERT_TRUE(joined) << "the duplicates never reached the flight";
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
    EXPECT_EQ(stats.coalesced, 3u);
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
    config.maxRequestBytes = 512;
    Daemon daemon(config);
    const std::string wire = "tts-frame 1000\n" +
        std::string(1000, 'x') + encodeFrame(quickRequest());
    const SessionRun run = serveWire(daemon, MuxOptions{}, wire);
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

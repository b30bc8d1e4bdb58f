/**
 * @file
 * SessionMux tests: concurrent framed sessions over socketpairs
 * against one shared daemon - in-order replies per session, slow
 * readers isolated to themselves, disconnects that never poison the
 * pool, and the 8-session x 8-worker soak the tentpole promises
 * (zero crashes, typed replies, every ok reply bit-identical to a
 * daemon-free baseline).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include "fault.hh"
#include "serve/daemon.hh"
#include "serve/eval.hh"
#include "serve/mux.hh"
#include "serve/protocol.hh"
#include "session.hh"
#include "util/random.hh"

using namespace tts;
using namespace tts::serve;
using namespace tts::servetest;

namespace {

/** A connected stream pair; [0] goes to the mux, [1] is ours. */
struct Pair
{
    int mux = -1;
    int mine = -1;

    Pair()
    {
        int fds[2];
        EXPECT_EQ(
            ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0)
            << std::strerror(errno);
        mux = fds[0];
        mine = fds[1];
    }

    ~Pair()
    {
        if (mine >= 0)
            ::close(mine);
    }
};

/** The session request pool: cheap distinct outage studies. */
std::vector<std::string>
outagePool(std::size_t n)
{
    std::vector<std::string> docs;
    for (std::size_t i = 0; i < n; ++i) {
        Request r;
        r.study = "outage";
        r.servers = 8;
        r.horizonS = 60.0 + 15.0 * static_cast<double>(i);
        docs.push_back(writeRequest(r));
    }
    return docs;
}

/** Run the mux on its own thread until `sessions` close. */
struct MuxRunner
{
    SessionMux mux;
    std::thread thread;

    MuxRunner(Daemon &daemon, MuxOptions options)
        : mux(daemon, options)
    {
        thread = std::thread([this] { mux.run(); });
    }

    ~MuxRunner()
    {
        mux.stop();
        if (thread.joinable())
            thread.join();
    }
};

} // namespace

TEST(ServeMux, SingleSessionRoundTripsInOrder)
{
    Daemon daemon(DaemonConfig{});
    const std::vector<std::string> pool = outagePool(4);
    std::vector<Result> baseline;
    for (const std::string &doc : pool)
        baseline.push_back(evaluate(parseRequest(doc)));

    MuxOptions options;
    options.exitAfterSessions = 1;
    MuxRunner runner(daemon, options);
    Pair pair;
    runner.mux.adopt(pair.mux);
    for (const std::string &doc : pool)
        sendFrame(pair.mine, doc);
    ::shutdown(pair.mine, SHUT_WR);
    for (std::size_t i = 0; i < pool.size(); ++i) {
        const Reply r = recvReply(pair.mine);
        ASSERT_TRUE(r.ok) << r.detail;
        EXPECT_EQ(r.result, baseline[i])
            << "reply " << i << " out of order or wrong";
    }
    runner.thread.join();
    const MuxStats stats = runner.mux.stats();
    EXPECT_EQ(stats.sessionsAccepted, 1u);
    EXPECT_EQ(stats.sessionsClosed, 1u);
    EXPECT_EQ(stats.framesOk, pool.size());
    EXPECT_EQ(stats.repliesWritten, pool.size());
    EXPECT_EQ(stats.repliesDiscarded, 0u);
}

TEST(ServeMux, PipelinedBurstStaysInsideTheWindow)
{
    // Eight times the admission queue, pipelined in one write.  The
    // window holds the session to four outstanding requests and the
    // rest wait in its decoder, so nothing is shed and the queue
    // never holds more than the window.
    DaemonConfig config;
    config.workers = 1;
    config.queueCapacity = 8;
    Daemon daemon(config);
    const std::vector<std::string> pool = outagePool(8);
    std::string wire;
    for (std::size_t round = 0; round < 8; ++round)
        for (const std::string &doc : pool)
            wire += encodeFrame(doc);
    const std::size_t requests = 8 * pool.size();
    ASSERT_GE(requests, 4 * config.queueCapacity);

    MuxOptions options;
    options.pipelineWindow = 4;
    options.exitAfterSessions = 1;
    MuxRunner runner(daemon, options);
    Pair pair;
    runner.mux.adopt(pair.mux);
    ASSERT_EQ(::write(pair.mine, wire.data(), wire.size()),
              static_cast<ssize_t>(wire.size()));
    ::shutdown(pair.mine, SHUT_WR);
    for (std::size_t i = 0; i < requests; ++i) {
        const Reply r = recvReply(pair.mine);
        ASSERT_TRUE(r.ok) << "reply " << i << ": " << r.detail;
    }
    runner.thread.join();
    const DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.shed, 0u);
    EXPECT_LE(stats.queuePeak, options.pipelineWindow);
    EXPECT_EQ(runner.mux.stats().repliesWritten, requests);
}

TEST(ServeMux, UnreadRepliesHoldASessionToOneWindow)
{
    // The client pipelines 64 requests and reads nothing.  Once the
    // reply pipe is full, replies framed but unsent count against
    // the window, so the session stops taking frames instead of
    // buffering every reply.
    DaemonConfig config;
    config.workers = 2;
    Daemon daemon(config);
    const std::vector<std::string> pool = outagePool(8);
    std::vector<Result> baseline;
    for (const std::string &doc : pool)
        baseline.push_back(evaluate(parseRequest(doc)));
    std::string wire;
    for (std::size_t round = 0; round < 8; ++round)
        for (const std::string &doc : pool)
            wire += encodeFrame(doc);
    const std::size_t requests = 8 * pool.size();

    int requestPipe[2];
    int replyPipe[2];
    ASSERT_EQ(::pipe(requestPipe), 0);
    ASSERT_EQ(::pipe(replyPipe), 0);
    // One page holds a handful of replies, far fewer than 64.
    ASSERT_GT(::fcntl(replyPipe[1], F_SETPIPE_SZ, 4096), 0)
        << std::strerror(errno);
    ASSERT_TRUE(writeAll(requestPipe[1], wire));
    ::close(requestPipe[1]);

    MuxOptions options;
    options.pipelineWindow = 4;
    options.exitAfterSessions = 1;
    MuxRunner runner(daemon, options);
    runner.mux.adopt(requestPipe[0], replyPipe[1]);
    // Wait for the session to stall: every dispatched request
    // answered and the counters still for 200 ms.
    MuxStats stalled;
    for (int still = 0; still < 40;) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        const MuxStats now = runner.mux.stats();
        const DaemonStats d = daemon.stats();
        const bool idle = d.repliesOk + d.repliesError == d.submitted;
        still = idle && now.framesOk == stalled.framesOk &&
                now.repliesWritten == stalled.repliesWritten
            ? still + 1
            : 0;
        stalled = now;
        if (now.framesOk == requests)
            break;
    }
    EXPECT_LT(stalled.framesOk, requests)
        << "the session took every frame with no reader";
    EXPECT_LE(stalled.framesOk - stalled.repliesWritten,
              options.pipelineWindow);

    // Reading resumes the session: every reply arrives, in order.
    for (std::size_t i = 0; i < requests; ++i) {
        const Reply r = recvReply(replyPipe[0]);
        ASSERT_TRUE(r.ok) << "reply " << i << ": " << r.detail;
        EXPECT_EQ(r.result, baseline[i % pool.size()]);
    }
    runner.thread.join();
    ::close(replyPipe[0]);
    EXPECT_EQ(runner.mux.stats().repliesWritten, requests);
}

TEST(ServeMux, MalformedFramesGetTypedRepliesInTheirSlots)
{
    // One worker evaluates in arrival order, so the first copy of
    // the repeated document always leads and the second is a hit.
    DaemonConfig config;
    config.workers = 1;
    config.maxRequestBytes = 1024;
    Daemon daemon(config);
    MuxOptions options;
    options.exitAfterSessions = 1;
    MuxRunner runner(daemon, options);
    Pair pair;
    runner.mux.adopt(pair.mux);

    const std::string good = outagePool(1)[0];
    sendFrame(pair.mine, good);
    sendFrame(pair.mine, "this is not a request");
    // An oversized frame is drained and the session stays in sync.
    const std::string big(2048, 'x');
    sendFrame(pair.mine, big);
    sendFrame(pair.mine, good);
    ::shutdown(pair.mine, SHUT_WR);

    const Reply r0 = recvReply(pair.mine);
    EXPECT_TRUE(r0.ok) << r0.detail;
    const Reply r1 = recvReply(pair.mine);
    EXPECT_FALSE(r1.ok);
    EXPECT_EQ(r1.error, ErrorKind::Malformed);
    const Reply r2 = recvReply(pair.mine);
    EXPECT_FALSE(r2.ok);
    EXPECT_EQ(r2.error, ErrorKind::Malformed);
    const Reply r3 = recvReply(pair.mine);
    EXPECT_TRUE(r3.ok) << r3.detail;
    EXPECT_TRUE(r3.cacheHit);
    runner.thread.join();
}

TEST(ServeMux, DisconnectMidPipelineDiscardsRepliesNotWork)
{
    DaemonConfig config;
    config.workers = 2;
    Daemon daemon(config);
    MuxOptions options;
    options.exitAfterSessions = 1;
    MuxRunner runner(daemon, options);
    const std::vector<std::string> pool = outagePool(3);
    {
        Pair pair;
        runner.mux.adopt(pair.mux);
        for (const std::string &doc : pool)
            sendFrame(pair.mine, doc);
        // Hang up without reading a single reply.
        ::close(pair.mine);
        pair.mine = -1;
    }
    runner.thread.join();
    // Every accepted request still ran to completion...
    daemon.drain();
    const DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.repliesOk + stats.repliesError,
              stats.submitted);
    EXPECT_EQ(stats.workerFailed, 0u);
    // ...and the daemon still serves the next client, now warm.
    const Reply r = daemon.call(pool[0]);
    ASSERT_TRUE(r.ok) << r.detail;
    EXPECT_TRUE(r.cacheHit);
}

TEST(ServeMux, SlowReaderOnlySlowsItself)
{
    DaemonConfig config;
    config.workers = 4;
    Daemon daemon(config);
    MuxOptions options;
    options.exitAfterSessions = 2;
    MuxRunner runner(daemon, options);
    const std::vector<std::string> pool = outagePool(4);

    Pair slow;
    Pair fast;
    runner.mux.adopt(slow.mux);
    runner.mux.adopt(fast.mux);
    // The slow session floods requests and reads nothing yet; its
    // replies must pile up in *its* buffers only.
    for (int round = 0; round < 4; ++round)
        for (const std::string &doc : pool)
            sendFrame(slow.mine, doc);
    // The fast session gets all its replies while the slow one is
    // still not reading.
    for (const std::string &doc : pool)
        sendFrame(fast.mine, doc);
    ::shutdown(fast.mine, SHUT_WR);
    for (std::size_t i = 0; i < pool.size(); ++i) {
        const Reply r = recvReply(fast.mine);
        EXPECT_TRUE(r.ok) << r.detail;
    }
    // Now drain the slow session; every reply arrives, in order.
    ::shutdown(slow.mine, SHUT_WR);
    for (std::size_t k = 0; k < 4 * pool.size(); ++k) {
        const Reply r = recvReply(slow.mine);
        EXPECT_TRUE(r.ok) << r.detail;
    }
    runner.thread.join();
    const MuxStats stats = runner.mux.stats();
    EXPECT_EQ(stats.sessionsClosed, 2u);
    EXPECT_EQ(stats.repliesWritten, 5 * pool.size());
}

TEST(ServeMux, RefusesAdoptionsPastMaxSessions)
{
    Daemon daemon(DaemonConfig{});
    MuxOptions options;
    options.maxSessions = 1;
    options.exitAfterSessions = 1;
    MuxRunner runner(daemon, options);
    Pair first;
    Pair second;
    runner.mux.adopt(first.mux);
    // Wait until the first adoption lands so the order is fixed.
    while (runner.mux.stats().sessionsAccepted == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    runner.mux.adopt(second.mux);
    while (runner.mux.stats().sessionsRefused == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // The refused client sees EOF, not a hang.
    char c;
    EXPECT_EQ(::read(second.mine, &c, 1), 0);
    ::shutdown(first.mine, SHUT_WR);
    runner.thread.join();
    EXPECT_EQ(runner.mux.stats().sessionsRefused, 1u);
}

namespace {

/**
 * The multi-client soak: `sessions` concurrent framed sessions
 * against one daemon at `workers` width, with the serve fault
 * plan's multi-client draws (malformed payloads, slow-client
 * stalls, disconnects, slow readers) woven through the traffic.  A
 * stalled request's frame header goes out, the client sleeps the
 * plan's stallMs(), then the payload follows.
 */
void
runMultiClientSoak(std::size_t sessions, std::size_t workers)
{
    const std::size_t kPerSession = 12;
    ServeFaultProfile profile;
    profile.malformedPerRequest = 0.10;
    profile.slowClientPerRequest = 0.10;
    profile.disconnectPerRequest = 0.05;
    profile.slowSessionPerSession = 0.25;
    profile.seed = 0x10ad5e55;
    const ServeFaultPlan plan = ServeFaultPlan::generate(
        profile, sessions * kPerSession, sessions);
    ASSERT_GT(plan.countOf(RequestFault::Malformed), 0u);
    ASSERT_GT(plan.countOf(RequestFault::SlowClient), 0u);
    ASSERT_GT(plan.countOf(RequestFault::Disconnect), 0u);
    ASSERT_GT(plan.slowSessions(), 0u);

    const std::vector<std::string> pool = outagePool(8);
    std::vector<Result> baseline;
    for (const std::string &doc : pool)
        baseline.push_back(evaluate(parseRequest(doc)));

    DaemonConfig config;
    config.workers = workers;
    config.queueCapacity = 64;
    Daemon daemon(config);
    MuxOptions options;
    options.maxSessions = sessions;
    // Every session's window fits in the admission queue at once,
    // so no request is shed and each garbage slot is malformed.
    options.pipelineWindow = config.queueCapacity / sessions;
    options.exitAfterSessions = sessions;
    MuxRunner runner(daemon, options);

    std::vector<std::thread> clients;
    std::atomic<std::size_t> ok_replies{0};
    std::atomic<std::size_t> typed_errors{0};
    std::atomic<bool> failed{false};
    for (std::size_t s = 0; s < sessions; ++s) {
        int fds[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        runner.mux.adopt(fds[0]);
        const int mine = fds[1];
        clients.emplace_back([&, s, mine] {
            Rng pick = Rng::forStream(profile.seed, 7000 + s);
            std::vector<int> slots;
            bool disconnected = false;
            for (std::size_t k = 0; k < kPerSession; ++k) {
                const std::size_t i = s * kPerSession + k;
                switch (plan.requestFault(i)) {
                  case RequestFault::Malformed:
                    sendFrame(mine, "garbage request " +
                                        std::to_string(i));
                    slots.push_back(-1);
                    break;
                  case RequestFault::SlowClient: {
                    const int which = static_cast<int>(
                        pick.uniformInt(pool.size()));
                    sendFrameStalled(
                        mine, pool[static_cast<std::size_t>(which)],
                        plan.stallMs());
                    slots.push_back(which);
                    break;
                  }
                  case RequestFault::Disconnect: {
                    const int which = static_cast<int>(
                        pick.uniformInt(pool.size()));
                    sendFrame(
                        mine,
                        pool[static_cast<std::size_t>(which)]);
                    disconnected = true;
                    break;
                  }
                  default: {
                    const int which = static_cast<int>(
                        pick.uniformInt(pool.size()));
                    sendFrame(
                        mine,
                        pool[static_cast<std::size_t>(which)]);
                    slots.push_back(which);
                    break;
                  }
                }
                if (disconnected)
                    break;
            }
            if (disconnected) {
                // Hang up with replies still in flight: the mux
                // must discard them without disturbing anyone.
                ::close(mine);
                return;
            }
            ::shutdown(mine, SHUT_WR);
            const bool slow = plan.slowSession(s);
            for (std::size_t k = 0; k < slots.size(); ++k) {
                if (slow && k % 3 == 0)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(2));
                try {
                    const Reply r = recvReply(mine);
                    if (slots[k] < 0) {
                        if (r.ok ||
                            r.error != ErrorKind::Malformed)
                            failed = true;
                        ++typed_errors;
                    } else if (r.ok) {
                        ++ok_replies;
                        if (r.result !=
                            baseline[static_cast<std::size_t>(
                                slots[k])])
                            failed = true;
                    } else {
                        // Overloaded is the only legitimate typed
                        // rejection of faithful traffic here.
                        if (r.error != ErrorKind::Overloaded)
                            failed = true;
                        ++typed_errors;
                    }
                } catch (const Error &) {
                    failed = true;
                }
            }
            ::close(mine);
        });
    }
    for (std::thread &t : clients)
        t.join();
    runner.thread.join();
    daemon.drain();

    EXPECT_FALSE(failed.load())
        << "a session saw a wrong, out-of-order, or missing reply";
    EXPECT_GT(ok_replies.load(), 0u);
    const MuxStats mux_stats = runner.mux.stats();
    EXPECT_EQ(mux_stats.sessionsAccepted, sessions);
    EXPECT_EQ(mux_stats.sessionsClosed, sessions);
    const DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.repliesOk + stats.repliesError,
              stats.submitted);
    EXPECT_EQ(stats.shed, 0u);
    EXPECT_EQ(stats.workerFailed, 0u);
    EXPECT_EQ(daemon.cacheCounters().collisions, 0u);
}

} // namespace

TEST(ServeMux, MultiClientSoakEightSessionsEightWorkers)
{
    runMultiClientSoak(8, 8);
}

TEST(ServeMux, MultiClientSoakEightSessionsOneWorker)
{
    runMultiClientSoak(8, 1);
}

/**
 * @file
 * MissBatcher tests: the cross-request batching edges the tentpole
 * promises - a window of one, all-hits traffic that never sweeps,
 * duplicate canonicals coalescing inside one window, and the
 * bit-identity of batched vs individual evaluation at 1 and 8
 * workers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/batch.hh"
#include "serve/daemon.hh"
#include "serve/eval.hh"
#include "util/error.hh"

using namespace tts;
using namespace tts::serve;

namespace {

/** A fleet request pool small enough to sweep in a test. */
std::vector<Request>
fleetPool(std::size_t n)
{
    std::vector<Request> reqs;
    for (std::size_t i = 0; i < n; ++i) {
        Request r;
        r.study = "fleet";
        r.servers = 8 + 4 * i;
        r.days = 0.25;
        reqs.push_back(r);
    }
    return reqs;
}

/** A sweep stub that records batch compositions. */
struct RecordingSweep
{
    std::vector<std::vector<std::string>> batches;
    std::mutex mu;

    MissBatcher::Sweep fn()
    {
        return [this](const std::vector<Request> &reqs) {
            {
                std::lock_guard<std::mutex> lock(mu);
                std::vector<std::string> canon;
                for (const Request &r : reqs)
                    canon.push_back(canonicalText(r));
                batches.push_back(std::move(canon));
            }
            std::vector<Result> out;
            for (const Request &r : reqs) {
                Result one;
                one["fleet.servers"] =
                    static_cast<double>(r.servers);
                out.push_back(std::move(one));
            }
            return out;
        };
    }
};

} // namespace

TEST(ServeBatch, OptionsAreValidated)
{
    BatchOptions bad;
    bad.windowMs = -1.0;
    EXPECT_THROW(MissBatcher b(bad), FatalError);
    bad = BatchOptions{};
    bad.maxBatch = 0;
    EXPECT_THROW(MissBatcher b(bad), FatalError);
}

TEST(ServeBatch, WindowOfOneEvaluatesEveryMissIndividually)
{
    // maxBatch = 1 (and likewise windowMs = 0) must degenerate to
    // one sweep per request - no window ever opens.
    for (bool zeroWindow : {false, true}) {
        RecordingSweep rec;
        BatchOptions options;
        if (zeroWindow)
            options.windowMs = 0.0;
        else
            options.maxBatch = 1;
        MissBatcher batcher(options, rec.fn());
        const std::vector<Request> pool = fleetPool(3);
        for (const Request &r : pool)
            batcher.evaluate(r, canonicalText(r));
        const BatchStats stats = batcher.stats();
        EXPECT_EQ(stats.sweeps, 3u);
        EXPECT_EQ(stats.jobs, 3u);
        EXPECT_EQ(stats.requests, 3u);
        EXPECT_EQ(stats.coalesced, 0u);
        EXPECT_EQ(stats.largestBatch, 1u);
        ASSERT_EQ(rec.batches.size(), 3u);
        for (const auto &batch : rec.batches)
            EXPECT_EQ(batch.size(), 1u);
    }
}

TEST(ServeBatch, ConcurrentMissesShareOneSweep)
{
    RecordingSweep rec;
    BatchOptions options;
    options.windowMs = 1000.0; // generous: the batch closes on fill
    options.maxBatch = 4;
    MissBatcher batcher(options, rec.fn());
    const std::vector<Request> pool = fleetPool(4);
    std::vector<std::future<Result>> futs;
    for (const Request &r : pool)
        futs.push_back(std::async(std::launch::async, [&, r] {
            return batcher.evaluate(r, canonicalText(r));
        }));
    for (std::size_t i = 0; i < pool.size(); ++i) {
        const Result got = futs[i].get();
        EXPECT_EQ(got.at("fleet.servers"),
                  static_cast<double>(pool[i].servers))
            << "request " << i
            << " got another request's result back";
    }
    const BatchStats stats = batcher.stats();
    EXPECT_EQ(stats.requests, 4u);
    EXPECT_EQ(stats.jobs, 4u);
    // All four were in flight together, so at most two windows can
    // have formed (the leader's fill target is 4; a straggler that
    // missed the first window leads its own).
    EXPECT_LE(stats.sweeps, 2u);
    EXPECT_GE(stats.largestBatch, 2u);
}

TEST(ServeBatch, DuplicateCanonicalsInOneWindowCoalesce)
{
    RecordingSweep rec;
    BatchOptions options;
    options.windowMs = 500.0;
    options.maxBatch = 8;
    MissBatcher batcher(options, rec.fn());
    Request r = fleetPool(1)[0];
    const std::string canon = canonicalText(r);

    // The leader holds the window open; members sending the same
    // canonical must fold onto its single job.
    std::vector<std::future<Result>> futs;
    for (int i = 0; i < 3; ++i)
        futs.push_back(std::async(std::launch::async, [&] {
            return batcher.evaluate(r, canon);
        }));
    std::vector<Result> results;
    for (auto &f : futs)
        results.push_back(f.get());
    for (const Result &got : results)
        EXPECT_EQ(got.at("fleet.servers"),
                  static_cast<double>(r.servers));

    const BatchStats stats = batcher.stats();
    EXPECT_EQ(stats.requests, 3u);
    // However the threads raced into windows, no window may carry
    // the same canonical twice.
    for (const auto &batch : rec.batches) {
        for (std::size_t i = 0; i < batch.size(); ++i)
            for (std::size_t j = i + 1; j < batch.size(); ++j)
                EXPECT_NE(batch[i], batch[j])
                    << "duplicate canonical in one sweep";
    }
    EXPECT_EQ(stats.jobs + stats.coalesced, stats.requests);
}

TEST(ServeBatch, SweepFailurePropagatesToEveryMember)
{
    BatchOptions options;
    options.windowMs = 200.0;
    options.maxBatch = 2;
    MissBatcher batcher(
        options,
        [](const std::vector<Request> &) -> std::vector<Result> {
            throw std::runtime_error("sweep died");
        });
    const std::vector<Request> pool = fleetPool(2);
    std::vector<std::future<Result>> futs;
    for (const Request &r : pool)
        futs.push_back(std::async(std::launch::async, [&, r] {
            return batcher.evaluate(r, canonicalText(r));
        }));
    for (auto &f : futs)
        EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ServeBatch, BatchedResultsAreBitIdenticalToIndividualEvals)
{
    // The real sweep, batched 4-wide, against individual
    // daemon-free evaluations of the same requests.
    const std::vector<Request> pool = fleetPool(4);
    std::vector<Result> individual;
    for (const Request &r : pool)
        individual.push_back(evaluate(r));

    BatchOptions options;
    options.windowMs = 1000.0;
    options.maxBatch = pool.size();
    MissBatcher batcher(options);
    std::vector<std::future<Result>> futs;
    for (const Request &r : pool)
        futs.push_back(std::async(std::launch::async, [&, r] {
            return batcher.evaluate(r, canonicalText(r));
        }));
    for (std::size_t i = 0; i < pool.size(); ++i)
        EXPECT_EQ(futs[i].get(), individual[i])
            << "batched result " << i
            << " differs from its individual evaluation";
    EXPECT_GE(batcher.stats().largestBatch, 2u);
}

namespace {

/** Drive identical fleet traffic through a daemon at `workers`
 *  width and assert every reply matches the daemon-free baseline. */
void
runBatchedDaemon(std::size_t workers)
{
    const std::vector<Request> pool = fleetPool(4);
    std::vector<Result> baseline;
    for (const Request &r : pool)
        baseline.push_back(evaluate(r));

    DaemonConfig config;
    config.workers = workers;
    config.queueCapacity = 32;
    config.batch.windowMs = 5.0;
    config.batch.maxBatch = 4;
    Daemon daemon(config);
    std::vector<std::future<Reply>> futs;
    for (int round = 0; round < 2; ++round)
        for (const Request &r : pool)
            futs.push_back(daemon.submit(writeRequest(r)));
    for (std::size_t k = 0; k < futs.size(); ++k) {
        const Reply reply = futs[k].get();
        ASSERT_TRUE(reply.ok) << reply.detail;
        EXPECT_EQ(reply.result, baseline[k % pool.size()])
            << "daemon reply " << k
            << " differs from the daemon-free baseline at "
            << workers << " workers";
    }
    daemon.shutdown();
    const BatchStats stats = daemon.batchStats();
    // Only misses reach the batcher; round 2 is all cache hits.
    EXPECT_LE(stats.jobs, pool.size());
    EXPECT_EQ(stats.jobs + stats.coalesced, stats.requests);
}

} // namespace

TEST(ServeBatch, DaemonRepliesBitIdenticalWithOneWorker)
{
    runBatchedDaemon(1);
}

TEST(ServeBatch, DaemonRepliesBitIdenticalWithEightWorkers)
{
    runBatchedDaemon(8);
}

TEST(ServeBatch, BatchedWallStaysInsideTheUnbatchedBound)
{
    // Four distinct fleet misses submitted together, first with one
    // sweep per miss (window 0), then through a 10 ms window.  The
    // bound allows 1.5x the unbatched wall plus 0.25 s for the window.
    const std::vector<Request> pool = fleetPool(4);
    auto drive = [&](const DaemonConfig &config) {
        Daemon daemon(config);
        const auto t0 = std::chrono::steady_clock::now();
        std::vector<std::future<Reply>> futs;
        for (const Request &r : pool)
            futs.push_back(daemon.submit(writeRequest(r)));
        for (auto &f : futs) {
            const Reply reply = f.get();
            EXPECT_TRUE(reply.ok) << reply.detail;
        }
        const double wall_s = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0).count();
        daemon.shutdown();
        return wall_s;
    };
    DaemonConfig solo;
    solo.workers = 4;
    solo.queueCapacity = 2 * pool.size() + 8;
    solo.batch.windowMs = 0.0;
    const double unbatched_s = drive(solo);
    DaemonConfig merged = solo;
    merged.batch.windowMs = 10.0;
    merged.batch.maxBatch = pool.size();
    const double batched_s = drive(merged);

    EXPECT_LE(batched_s, 1.5 * unbatched_s + 0.25)
        << "unbatched " << unbatched_s << " s";
}

TEST(ServeBatch, AllHitsTrafficNeverReachesTheBatcher)
{
    const std::vector<Request> pool = fleetPool(2);
    DaemonConfig config;
    config.workers = 2;
    config.batch.windowMs = 5.0;
    Daemon daemon(config);
    // Warm serially, then hammer the warm entries concurrently.
    for (const Request &r : pool) {
        const Reply reply = daemon.call(writeRequest(r));
        ASSERT_TRUE(reply.ok) << reply.detail;
    }
    const BatchStats warm = daemon.batchStats();
    std::vector<std::future<Reply>> futs;
    for (int round = 0; round < 4; ++round)
        for (const Request &r : pool)
            futs.push_back(daemon.submit(writeRequest(r)));
    for (auto &f : futs) {
        const Reply reply = f.get();
        ASSERT_TRUE(reply.ok) << reply.detail;
        EXPECT_TRUE(reply.cacheHit);
    }
    // A hit is answered at the cache rung: no new sweeps, no new
    // batcher traffic.
    const BatchStats after = daemon.batchStats();
    EXPECT_EQ(after.sweeps, warm.sweeps);
    EXPECT_EQ(after.requests, warm.requests);
    daemon.shutdown();
}

/**
 * @file
 * The long-lived scenario-serving daemon (tts::serve).
 *
 * A Daemon owns a bounded admission queue, a fixed pool of worker
 * threads (width defaults to exec::defaultThreadCount(), the same
 * resolution the tts::exec engine uses), and a shared ResultCache.
 * Every submitted request gets exactly one Reply - a result or a
 * typed rejection - no matter how hostile the input or how unlucky
 * the workers.  The degradation ladder, from least to most loaded:
 *
 *  1. cache hit - answered from the content-addressed cache,
 *     bit-identical to a fresh evaluation;
 *  2. coalesced - an identical request is already evaluating, so
 *     this one waits for that result instead of re-running it
 *     (single-flight);
 *  3. fresh evaluation - run on a worker, with transient failures
 *     retried under an exponential-backoff budget;
 *  4. deadline_exceeded - admitted, but its deadline passed before
 *     a worker could start it;
 *  5. overloaded - the admission queue is full; shed immediately
 *     (an instant typed reply, never an unbounded wait);
 *  6. worker_failed - evaluation kept dying past the retry budget;
 *  7. shutdown - the daemon is draining; the client should retry
 *     against a fresh instance.
 *
 * Malformed and unsupported-version requests are answered on rung
 * 0, before any of this: parsing happens on the worker inside the
 * same try/catch that guards evaluation, so a garbage payload costs
 * one queue slot and produces one typed reply.
 *
 * Fleet-backed cache misses additionally ride the MissBatcher
 * (serve/batch.hh): concurrent misses inside a short window execute
 * as one sharded fleet sweep, each reply still bit-identical to an
 * individual fresh evaluation.
 *
 * Crash-safety: the cache persists through guard's CRC'd tmp+rename
 * checkpoint path on shutdown() (and optionally every N inserts),
 * and a corrupt snapshot quarantines instead of aborting startup.
 * Observability: `serve.*` metrics (queue depth, hit/shed/retry
 * counters, latency histograms) when tts::obs collection is on.
 */

#ifndef TTS_SERVE_DAEMON_HH
#define TTS_SERVE_DAEMON_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_cache.hh"
#include "serve/batch.hh"
#include "serve/fault.hh"
#include "serve/protocol.hh"

namespace tts {
namespace serve {

/** Daemon sizing and robustness knobs. */
struct DaemonConfig
{
    /** Worker threads; 0 = exec::defaultThreadCount(). */
    std::size_t workers = 0;
    /** Admission queue capacity; submits past it are shed. */
    std::size_t queueCapacity = 64;
    /** Deadline applied when a request carries none (ms); 0 = no
     *  default deadline. */
    double defaultDeadlineMs = 0.0;
    /** Evaluation attempts per request (>= 1); transient failures
     *  are retried up to this many times in total. */
    std::size_t retryBudget = 3;
    /** Backoff before retry attempt k is 2^(k-1) times this (ms). */
    double retryBackoffBaseMs = 0.5;
    /** Largest request document accepted (bytes). */
    std::size_t maxRequestBytes = 64 * 1024;
    /** Result cache sizing/persistence. */
    tts::cache::CacheConfig cache;
    /** Miss batching for fleet-backed studies (serve/batch.hh);
     *  windowMs = 0 evaluates every miss individually. */
    BatchOptions batch;
};

/** Monotonic counters describing one daemon's lifetime. */
struct DaemonStats
{
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;
    std::uint64_t shed = 0;
    std::uint64_t repliesOk = 0;
    std::uint64_t repliesError = 0;
    std::uint64_t malformed = 0;
    std::uint64_t unsupportedVersion = 0;
    std::uint64_t deadlineExceeded = 0;
    std::uint64_t workerFailed = 0;
    std::uint64_t retries = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t evaluations = 0;
    std::uint64_t queuePeak = 0;

    /** @return Every counter as a flat kv map (for kv_json). */
    std::map<std::string, double> toMap() const;
};

class Daemon
{
  public:
    /**
     * Start the workers.  Loads the cache snapshot if configured
     * (a corrupt snapshot is quarantined, never fatal).
     *
     * @param config Sizing/robustness knobs.
     * @param faults Injected fault plan (tests/soak); the default
     *        plan injects nothing.
     */
    explicit Daemon(DaemonConfig config,
                    ServeFaultPlan faults = ServeFaultPlan{});

    /** shutdown(), then joins the workers. */
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Submit one request document.  Never throws and never blocks
     * on evaluation: over-capacity and post-shutdown submits are
     * answered immediately with typed rejections through the same
     * future.
     */
    std::future<Reply> submit(std::string request_json);

    /**
     * Submit with a completion callback instead of a future.  The
     * callback runs exactly once - on a worker thread after
     * evaluation, or on the submitting thread for an immediate
     * typed rejection (shed/shutdown).  It must be cheap and must
     * not call back into the daemon; the session mux uses this to
     * avoid parking a thread per outstanding request.
     */
    void submitAsync(std::string request_json,
                     std::function<void(Reply)> done);

    /** submit() and wait. */
    Reply call(const std::string &request_json);

    /** Block until every accepted request has been answered. */
    void drain();

    /**
     * Stop accepting, answer everything still queued, join the
     * workers, persist the cache.  Idempotent.
     */
    void shutdown();

    /** @return What the cache-snapshot load found (for logging). */
    cache::CacheLoadOutcome cacheLoadOutcome() const
    {
        return loadOutcome_;
    }

    /** @return A snapshot of the lifetime counters. */
    DaemonStats stats() const;

    /** @return Cache counters (hits/misses/evictions/...). */
    cache::ResultCache::Counters cacheCounters() const
    {
        return cache_.counters();
    }

    /** @return Miss-batcher counters (sweeps/jobs/coalesced/...). */
    BatchStats batchStats() const { return batcher_.stats(); }

    /** @return Resident cache entries. */
    std::size_t cacheSize() const { return cache_.size(); }

    /** @return Requests queued right now (snapshot; for tests and
     *  the bench harness). */
    std::size_t queueDepth() const;

    /** @return The configuration the daemon runs with. */
    const DaemonConfig &config() const { return config_; }

  private:
    struct Job;
    struct Flight;

    void workerLoop();
    Reply process(Job &job);
    Reply evaluateWithRetries(const Request &req,
                              const std::string &canonical,
                              std::uint64_t seq, std::uint64_t fp);
    void noteReply(const Reply &reply, double latency_ms);

    DaemonConfig config_;
    ServeFaultPlan faults_;
    cache::ResultCache cache_;
    MissBatcher batcher_;
    cache::CacheLoadOutcome loadOutcome_ =
        cache::CacheLoadOutcome::Fresh;

    mutable std::mutex mu_;
    std::condition_variable workReady_;
    std::condition_variable queueIdle_;
    std::deque<std::unique_ptr<Job>> queue_;
    std::map<std::uint64_t, std::shared_ptr<Flight>> flights_;
    std::size_t inFlight_ = 0;
    std::uint64_t nextSeq_ = 0;
    bool stopping_ = false;
    DaemonStats stats_;

    std::vector<std::thread> workers_;
};

} // namespace serve
} // namespace tts

#endif // TTS_SERVE_DAEMON_HH

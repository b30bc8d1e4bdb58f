#include "serve/daemon.hh"

#include <algorithm>
#include <chrono>
#include <utility>

#include "cache/fingerprint.hh"
#include "exec/parallel.hh"
#include "obs/obs.hh"
#include "serve/eval.hh"
#include "util/error.hh"

namespace tts {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     t0)
        .count();
}

/** Cached `serve.*` instrument references (registry lookups are
 *  once-per-process; mutation is gated on obs::enabled()). */
struct Metrics
{
    obs::Counter &submitted =
        obs::registry().counter("serve.submitted.total");
    obs::Counter &shed = obs::registry().counter("serve.shed.total");
    obs::Counter &hits =
        obs::registry().counter("serve.cache.hit.total");
    obs::Counter &coalesced =
        obs::registry().counter("serve.coalesced.total");
    obs::Counter &repliesOk =
        obs::registry().counter("serve.replies.ok");
    obs::Counter &repliesError =
        obs::registry().counter("serve.replies.error");
    obs::Gauge &queueDepth =
        obs::registry().gauge("serve.queue.depth");
    obs::HistogramCell &latencyMs = obs::registry().histogram(
        "serve.latency_ms", {0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
                             25.0, 50.0, 100.0, 250.0, 1000.0});
    obs::HistogramCell &evalMs = obs::registry().histogram(
        "serve.eval_ms", {0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
                          100.0, 250.0, 1000.0, 5000.0});
};

Metrics &
metrics()
{
    static Metrics m;
    return m;
}

} // namespace

std::map<std::string, double>
DaemonStats::toMap() const
{
    return {
        {"serve.submitted", static_cast<double>(submitted)},
        {"serve.accepted", static_cast<double>(accepted)},
        {"serve.shed", static_cast<double>(shed)},
        {"serve.replies_ok", static_cast<double>(repliesOk)},
        {"serve.replies_error", static_cast<double>(repliesError)},
        {"serve.malformed", static_cast<double>(malformed)},
        {"serve.unsupported_version",
         static_cast<double>(unsupportedVersion)},
        {"serve.deadline_exceeded",
         static_cast<double>(deadlineExceeded)},
        {"serve.worker_failed", static_cast<double>(workerFailed)},
        {"serve.retries", static_cast<double>(retries)},
        {"serve.coalesced", static_cast<double>(coalesced)},
        {"serve.evaluations", static_cast<double>(evaluations)},
        {"serve.queue_peak", static_cast<double>(queuePeak)},
    };
}

/** One admitted request, from submit to its delivered Reply. */
struct Daemon::Job
{
    std::string json;
    Clock::time_point admitted;
    /** Runs exactly once with the reply (worker thread, or the
     *  submitter's thread for an immediate rejection). */
    std::function<void(Reply)> done;
};

/** Single-flight rendezvous: the leader evaluates, followers wait
 *  here and copy the published reply. */
struct Daemon::Flight
{
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Reply reply;
};

Daemon::Daemon(DaemonConfig config, Evaluator evaluate)
    : config_(std::move(config)), evaluate_(std::move(evaluate)),
      cache_(config_.cache), batcher_(config_.batch)
{
    require(config_.queueCapacity >= 1,
            "serve daemon: queueCapacity must be >= 1");
    require(static_cast<bool>(evaluate_),
            "serve daemon: evaluator must be callable");
    if (config_.workers == 0)
        config_.workers = exec::defaultThreadCount();
    loadOutcome_ = cache_.load();
    workers_.reserve(config_.workers);
    for (std::size_t i = 0; i < config_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

Daemon::~Daemon()
{
    shutdown();
}

std::future<Reply>
Daemon::submit(std::string request_json)
{
    auto promise = std::make_shared<std::promise<Reply>>();
    std::future<Reply> fut = promise->get_future();
    submitAsync(std::move(request_json),
                [promise](Reply reply) {
                    promise->set_value(std::move(reply));
                });
    return fut;
}

void
Daemon::submitAsync(std::string request_json,
                    std::function<void(Reply)> done)
{
    auto job = std::make_unique<Job>();
    job->json = std::move(request_json);
    job->admitted = Clock::now();
    job->done = std::move(done);
    Reply rejection;
    bool rejected = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.submitted;
        if (stopping_) {
            rejection = Reply::errorReply(
                ErrorKind::Shutdown,
                "daemon is shutting down; retry against a fresh "
                "instance");
            rejected = true;
            ++stats_.repliesError;
        } else if (queue_.size() >= config_.queueCapacity) {
            rejection = Reply::errorReply(
                ErrorKind::Overloaded,
                "admission queue full (capacity " +
                    std::to_string(config_.queueCapacity) +
                    "); retry with backoff");
            rejected = true;
            ++stats_.shed;
            ++stats_.repliesError;
        } else {
            ++stats_.accepted;
            queue_.push_back(std::move(job));
            stats_.queuePeak =
                std::max(stats_.queuePeak,
                         static_cast<std::uint64_t>(queue_.size()));
            TTS_OBS_GAUGE(metrics().queueDepth,
                          static_cast<double>(queue_.size()));
        }
    }
    TTS_OBS_COUNT(metrics().submitted, 1);
    if (rejected) {
        // Shed on the submitter's thread: an instant typed reply
        // instead of an unbounded queue wait.
        TTS_OBS_COUNT(metrics().shed, 1);
        TTS_OBS_COUNT(metrics().repliesError, 1);
        job->done(std::move(rejection));
    } else {
        workReady_.notify_one();
    }
}

Reply
Daemon::call(const std::string &request_json)
{
    return submit(request_json).get();
}

void
Daemon::drain()
{
    std::unique_lock<std::mutex> lock(mu_);
    queueIdle_.wait(lock, [this] {
        return queue_.empty() && inFlight_ == 0;
    });
}

void
Daemon::shutdown()
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        // Drain first so every already-accepted request is
        // evaluated and answered, then flip the stop flag so late
        // submits get typed shutdown replies.
        queueIdle_.wait(lock, [this] {
            return queue_.empty() && inFlight_ == 0;
        });
        stopping_ = true;
    }
    workReady_.notify_all();
    for (std::thread &t : workers_)
        if (t.joinable())
            t.join();
    cache_.persist();
}

DaemonStats
Daemon::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

std::size_t
Daemon::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
}

void
Daemon::workerLoop()
{
    for (;;) {
        std::unique_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            workReady_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // stopping_ and fully drained
            job = std::move(queue_.front());
            queue_.pop_front();
            ++inFlight_;
            TTS_OBS_GAUGE(metrics().queueDepth,
                          static_cast<double>(queue_.size()));
        }
        Reply reply = process(*job);
        noteReply(reply, msSince(job->admitted));
        job->done(std::move(reply));
        {
            std::lock_guard<std::mutex> lock(mu_);
            --inFlight_;
            if (queue_.empty() && inFlight_ == 0)
                queueIdle_.notify_all();
        }
    }
}

Reply
Daemon::process(Job &job)
{
    // Rung 0: parsing happens here, inside the same never-throws
    // boundary as evaluation, so hostile bytes cost one queue slot
    // and produce one typed reply.
    Request req;
    try {
        req = parseRequest(job.json, config_.maxRequestBytes);
    } catch (const UnsupportedVersionError &e) {
        return Reply::errorReply(ErrorKind::UnsupportedVersion,
                                 e.what());
    } catch (const Error &e) {
        return Reply::errorReply(ErrorKind::Malformed, e.what());
    }
    const std::string canonical = canonicalText(req);
    const std::uint64_t fp = cache::fnv1a(canonical);

    // Rung 1: a cached answer is free, so it is served even when
    // the deadline has lapsed - deadlines bound time-to-evaluate,
    // not time-to-copy.
    Result cached;
    if (cache_.find(fp, canonical, &cached)) {
        TTS_OBS_COUNT(metrics().hits, 1);
        return Reply::okReply(fp, true, 0.0, std::move(cached));
    }

    const double deadline = req.deadlineMs > 0.0
        ? req.deadlineMs
        : config_.defaultDeadlineMs;
    if (deadline > 0.0) {
        const double waited = msSince(job.admitted);
        if (waited >= deadline)
            return Reply::errorReply(
                ErrorKind::DeadlineExceeded,
                "deadline of " + std::to_string(deadline) +
                    " ms passed before evaluation started",
                fp);
    }

    // Rung 2: single-flight.  The first worker to see a fingerprint
    // becomes its leader and evaluates; everyone else waits for the
    // published reply instead of re-running the study.
    std::shared_ptr<Flight> flight;
    bool leader = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = flights_.find(fp);
        if (it == flights_.end()) {
            flight = std::make_shared<Flight>();
            flights_.emplace(fp, flight);
            leader = true;
        } else {
            flight = it->second;
        }
    }
    if (!leader) {
        std::unique_lock<std::mutex> lock(flight->mu);
        flight->cv.wait(lock, [&] { return flight->done; });
        Reply reply = flight->reply;
        if (reply.ok) {
            reply.cacheHit = true;
            reply.evalMs = 0.0;
        }
        {
            std::lock_guard<std::mutex> slock(mu_);
            ++stats_.coalesced;
        }
        TTS_OBS_COUNT(metrics().coalesced, 1);
        return reply;
    }

    // Double-checked: a previous leader may have finished (insert,
    // then flight retire) between this request's cache miss and its
    // flight registration - re-read the cache before paying for an
    // evaluation.
    Reply reply;
    if (cache_.find(fp, canonical, &cached)) {
        TTS_OBS_COUNT(metrics().hits, 1);
        reply = Reply::okReply(fp, true, 0.0, std::move(cached));
    } else {
        reply = evaluateMiss(req, canonical, fp);
        if (reply.ok)
            cache_.insert(fp, canonical, reply.result);
    }
    {
        // Retire the flight before publishing: a request arriving
        // after this point must consult the (now warm) cache, not a
        // finished flight.
        std::lock_guard<std::mutex> lock(mu_);
        flights_.erase(fp);
    }
    {
        std::lock_guard<std::mutex> lock(flight->mu);
        flight->reply = reply;
        flight->done = true;
    }
    flight->cv.notify_all();
    return reply;
}

Reply
Daemon::evaluateMiss(const Request &req, const std::string &canonical,
                     std::uint64_t fp)
{
    try {
        const Clock::time_point t0 = Clock::now();
        // Fleet-backed misses ride the shared batcher so concurrent
        // misses execute as one sweep.
        Result result = batchable(req)
            ? batcher_.evaluate(req, canonical)
            : evaluate_(req);
        const double eval_ms = msSince(t0);
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.evaluations;
        }
        TTS_OBS_OBSERVE(metrics().evalMs, eval_ms);
        return Reply::okReply(fp, false, eval_ms, std::move(result));
    } catch (const Error &e) {
        // Evaluation rejected the request's semantics (e.g. an
        // unknown scenario name): a client error, not a worker
        // failure.
        return Reply::errorReply(ErrorKind::Malformed, e.what(), fp);
    } catch (const std::exception &e) {
        return Reply::errorReply(
            ErrorKind::WorkerFailed,
            std::string("evaluation died: ") + e.what(), fp);
    }
}

void
Daemon::noteReply(const Reply &reply, double latency_ms)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (reply.ok) {
            ++stats_.repliesOk;
        } else {
            ++stats_.repliesError;
            switch (reply.error) {
            case ErrorKind::Malformed:
                ++stats_.malformed;
                break;
            case ErrorKind::UnsupportedVersion:
                ++stats_.unsupportedVersion;
                break;
            case ErrorKind::DeadlineExceeded:
                ++stats_.deadlineExceeded;
                break;
            case ErrorKind::WorkerFailed:
                ++stats_.workerFailed;
                break;
            default:
                break;
            }
        }
    }
    TTS_OBS_COUNT(reply.ok ? metrics().repliesOk
                           : metrics().repliesError,
                  1);
    TTS_OBS_OBSERVE(metrics().latencyMs, latency_ms);
}

} // namespace serve
} // namespace tts

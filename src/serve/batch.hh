/**
 * @file
 * Cross-request miss batching for the scenario daemon.
 *
 * When many clients miss the cache on fleet-backed requests at the
 * same moment, running each miss as its own FleetSim dispatch wastes
 * the sweep entry point built for exactly this shape
 * (fleet::runFleetSweep).  The MissBatcher collects concurrent
 * batchable misses for a short window and executes them as *one*
 * sweep, splitting the per-request results back out bit-identical
 * to individual fresh evaluations.
 *
 * Shape: the first miss to arrive becomes the batch *leader* and
 * waits out the window (or until the batch fills to maxBatch);
 * later misses join as members.  Duplicate canonical texts inside
 * one window collapse onto a single sweep job - the in-window
 * analogue of the daemon's single-flight coalescing.  When the
 * window closes the leader runs the sweep while members wait; every
 * member then copies its own slot.  A sweep failure propagates to
 * every member, and each caller maps it to its own typed reply.
 *
 * Determinism: each sweep job is an independent fleet run, so a
 * request's result does not depend on who else shared its batch -
 * the batched-vs-individual bit-identity tests pin that.
 * Degenerate configurations fall out naturally: windowMs = 0 or
 * maxBatch = 1 makes every miss its own batch (individual
 * evaluation, same bits).
 */

#ifndef TTS_SERVE_BATCH_HH
#define TTS_SERVE_BATCH_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/protocol.hh"

namespace tts {
namespace serve {

/** Batching knobs. */
struct BatchOptions
{
    /** Collection window after the first miss (wall ms); 0 executes
     *  every miss individually. */
    double windowMs = 2.0;
    /** Close the window early once this many unique jobs joined. */
    std::size_t maxBatch = 16;
};

/** Monotonic counters describing one batcher's lifetime. */
struct BatchStats
{
    /** Sweeps dispatched (each covers >= 1 unique job). */
    std::uint64_t sweeps = 0;
    /** Member requests answered through a batch. */
    std::uint64_t requests = 0;
    /** Unique sweep jobs executed (requests - coalesced). */
    std::uint64_t jobs = 0;
    /** In-window duplicate canonicals collapsed onto one job. */
    std::uint64_t coalesced = 0;
    /** Largest unique-job batch dispatched so far. */
    std::uint64_t largestBatch = 0;
};

class MissBatcher
{
  public:
    /** The sweep executor: unique requests in, one Result per
     *  request in order.  Defaults to serve::evaluateFleetBatch. */
    using Sweep = std::function<std::vector<Result>(
        const std::vector<Request> &)>;

    explicit MissBatcher(BatchOptions options, Sweep sweep = {});

    /**
     * Evaluate one batchable cache miss through the current window.
     * Blocks until the batch executes (bounded by windowMs plus the
     * sweep itself).  Safe to call from many workers concurrently.
     *
     * @param req       The parsed request (must be batchable).
     * @param canonical canonicalText(req) - the dedupe key.
     * @return This request's result, bit-identical to evaluating it
     *         alone.
     * @throws Whatever the sweep threw, rethrown to every member.
     */
    Result evaluate(const Request &req, const std::string &canonical);

    /** @return A snapshot of the lifetime counters. */
    BatchStats stats() const;

    const BatchOptions &options() const { return options_; }

  private:
    struct Batch;

    BatchOptions options_;
    Sweep sweep_;
    mutable std::mutex mu_;
    std::shared_ptr<Batch> open_;
    BatchStats stats_;
};

} // namespace serve
} // namespace tts

#endif // TTS_SERVE_BATCH_HH

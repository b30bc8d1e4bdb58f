/**
 * @file
 * The hostile-client schedule of the serve soaks.
 *
 * The simulator-level FaultSchedule speaks plant trips and fan
 * failures; a serving session fails differently - a client sends
 * garbage, a frame lies about its length, a reader stalls or hangs
 * up.  A ServeFaultPlan is the deterministic, seeded schedule of
 * those events for one soak run: request index `i` is assigned its
 * client-side mutation (malformed payload, oversized frame,
 * truncated frame, slow-client stall, disconnect) up front, and
 * session `s` its slow-reader flag, from Rng::forStream sub-streams
 * of one seed.  The same (profile, request_count, seed) therefore
 * replays the same hostile schedule on every run and at every
 * thread count - the soak tests' zero-crash and
 * every-request-answered assertions are assertions about one
 * reproducible execution, not about luck.
 *
 * Only the soak harnesses consume the plan, when they build the
 * hostile byte stream; the daemon never sees it.
 */

#ifndef TTS_TESTS_SERVE_FAULT_HH
#define TTS_TESTS_SERVE_FAULT_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tts {
namespace servetest {

/** What the hostile client does to one request. */
enum class RequestFault
{
    None,      //!< Sent faithfully.
    Malformed, //!< Payload replaced with a malformed-corpus entry.
    Oversized, //!< Framed with a payload over the frame limit.
    Truncated, //!< Frame header declares more bytes than are sent.
    SlowClient,//!< Stall between header and payload bytes.
    Disconnect,//!< Client hangs up right after sending this request.
};

/** Per-request event probabilities for a generated plan. */
struct ServeFaultProfile
{
    /** P(malformed payload) per request. */
    double malformedPerRequest = 0.0;
    /** P(oversized frame) per request. */
    double oversizedPerRequest = 0.0;
    /** P(truncated frame) per request. */
    double truncatedPerRequest = 0.0;
    /** P(slow-client stall) per request. */
    double slowClientPerRequest = 0.0;
    /** P(client disconnects right after sending) per request. */
    double disconnectPerRequest = 0.0;
    /** Stall length (wall ms) for slow-client events. */
    double slowClientStallMs = 2.0;
    /** P(a whole session reads its replies slowly) per session
     *  (the multi-client soak's slow-reader axis). */
    double slowSessionPerSession = 0.0;
    /** Master seed. */
    std::uint64_t seed = 0x5eedbea7;
};

/** The materialized, replayable schedule for one soak run. */
class ServeFaultPlan
{
  public:
    /** Benign plan: no faults anywhere. */
    ServeFaultPlan() = default;

    /**
     * Sample a plan for `request_count` requests (and optionally
     * `session_count` concurrent sessions).  Request i draws its
     * client-side fault from the forStream(seed, 2 i) stream (the
     * odd streams stay unused, so every soak keeps its schedule),
     * and each session draws its slow-reader flag from a second
     * family at a disjoint stream offset, so the axes never perturb
     * each other (the fault::generateSchedule idiom).
     */
    static ServeFaultPlan generate(const ServeFaultProfile &profile,
                                   std::size_t request_count,
                                   std::size_t session_count = 0);

    /** @return The client-side mutation for request `i` (None past
     *  the planned range). */
    RequestFault requestFault(std::size_t i) const;

    /** @return Stall length for SlowClient events (wall ms). */
    double stallMs() const { return stallMs_; }

    /** @return Planned request count. */
    std::size_t size() const { return requestFaults_.size(); }

    /** @return Number of planned events of `kind`. */
    std::size_t countOf(RequestFault kind) const;

    /** @return Whether session `s` is a planned slow reader (false
     *  past the planned range). */
    bool slowSession(std::size_t s) const;

    /** @return Number of planned slow-reader sessions. */
    std::size_t slowSessions() const;

  private:
    std::vector<RequestFault> requestFaults_;
    std::vector<char> slowSessions_;
    double stallMs_ = 2.0;
};

} // namespace servetest
} // namespace tts

#endif // TTS_TESTS_SERVE_FAULT_HH

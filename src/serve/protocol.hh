/**
 * @file
 * Wire protocol for the tts_serve scenario daemon (tts::serve).
 *
 * A scenario request is a flat JSON object (util/kv_json's KvAnyMap
 * dialect: string keys, number-or-string values, no nesting, no
 * escapes) naming a study and its RunConfig deltas, with an optional
 * inline fault schedule.  Requests travel over a byte stream in
 * length-prefixed frames:
 *
 *     tts-frame <decimal payload length>\n
 *     <payload bytes>
 *
 * The framing layer is the daemon's first line of defense: a frame
 * header that is not exactly the form above (the length is ASCII
 * decimal digits only - no sign, no spaces - and the whole header
 * line is at most 64 bytes), a length over the configured limit, or
 * a payload the stream cannot deliver in full is reported as a
 * typed malformed-frame condition - never an exception out of the
 * read loop, and never a partial payload handed to the parser.  An
 * oversized frame whose header parsed cleanly is drained from the
 * stream so the connection stays in sync and later frames still get
 * answers.
 *
 * Replies reuse the same JSON dialect and framing.  A success reply
 * carries the envelope keys `status` ("ok"), `cache_hit`,
 * `fingerprint`, and `eval_ms`, plus the study's flat result keys
 * (`outage.ride_with_wax_s`, ...).  A rejection carries `status`
 * ("error"), a machine-readable `error` kind from the degradation
 * ladder (malformed / unsupported_version / overloaded /
 * deadline_exceeded / worker_failed / shutdown), and a
 * human-readable `detail`.  Result
 * keys are disjoint from envelope keys by construction (every study
 * key is dotted, envelope keys are not), so cache-hit bit-identity
 * can be asserted over exactly the result keys.
 */

#ifndef TTS_SERVE_PROTOCOL_HH
#define TTS_SERVE_PROTOCOL_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "util/error.hh"

namespace tts {
namespace serve {

/** Typed rejection categories, most to least recoverable. */
enum class ErrorKind
{
    Malformed,        //!< Request unparseable or invalid; never retry.
    UnsupportedVersion, //!< `proto` names a version this daemon
                        //!< does not speak; never retry here.
    Overloaded,       //!< Admission queue full; retry with backoff.
    DeadlineExceeded, //!< Deadline passed before evaluation started.
    WorkerFailed,     //!< Evaluation kept failing past the retry budget.
    Shutdown,         //!< Daemon is draining; retry against a new one.
};

/** @return Stable wire name ("malformed", ...). */
const char *toString(ErrorKind kind);

/** @return Kind parsed from its toString() name. @throws FatalError */
ErrorKind errorKindFromString(const std::string &name);

/**
 * Raised by parseRequest for a syntactically clean request whose
 * `proto` field names a version this build does not speak.  Checked
 * before any other field, so a future-version request with
 * future-version keys is rejected as unsupported_version, not
 * malformed - the client learns the actionable thing.
 */
class UnsupportedVersionError : public FatalError
{
  public:
    explicit UnsupportedVersionError(const std::string &what)
        : FatalError(what)
    {
    }
};

/**
 * One scenario request: a study selector plus RunConfig deltas.
 * Field defaults are the canonical values - a request that omits a
 * key and one that spells the default out fingerprint identically.
 */
struct Request
{
    /**
     * Protocol version; 1 is the only version this build speaks.
     * Absent means 1 and the field is *excluded* from the canonical
     * fingerprint text (like deadlineMs): it gates whether the
     * daemon answers, never what the answer is, so every pre-proto
     * fingerprint and pinned reference vector stays byte-stable.
     * Other values parse cleanly and are rejected by the daemon
     * with a typed `unsupported_version` reply.
     */
    int proto = 1;
    /** Study: "cooling", "outage", "resilience", "plant", "fleet",
     *  or "optimize". */
    std::string study = "cooling";
    /** Platform index (0 = 1U RD330, 1 = 2U X4470, 2 = OpenCompute). */
    int platform = 0;
    /** Cluster population for the cooling study. */
    std::size_t servers = 48;
    /** Trace length for the cooling study (days). */
    double days = 1.0;
    /** Melting temperature (C); 0 = platform default. */
    double meltC = 0.0;
    /** Wax charge per server (liters); 0 = platform default. */
    double waxLiters = 0.0;
    /** Held utilization (outage / resilience). */
    double utilization = 0.75;
    /** Horizon override (s); 0 = the study's default horizon. */
    double horizonS = 0.0;
    /** Canonical fault scenario name (resilience only). */
    std::string scenario = "plant_trip_total";
    /** Inline `tts-fault-schedule v1` text; overrides `scenario`. */
    std::string faults;
    /** Cooling-plant backend (plant study): "crac", "hot_water",
     *  "economizer", or "mpc". */
    std::string plantBackend = "crac";
    /** Inline t_hours,ambient_c weather CSV (plant study); empty
     *  uses the sinusoidal ambient.  Travels with ';' line breaks
     *  like `faults`. */
    std::string weather;
    /** Job-placement policy for the fleet study ("uniform",
     *  "thermal_aware", or "consolidate"). */
    std::string placement = "uniform";
    /** Search objective for the optimize study ("peak" or "tco"). */
    std::string objective = "peak";
    /** Logical evaluation budget for the optimize study.  Counts
     *  memo hits (the opt engine contract), so it is part of the
     *  canonical fingerprint - a bigger budget is a different
     *  search. */
    std::size_t budget = 16;
    /** Annealing restarts for the optimize study. */
    std::size_t restarts = 1;
    /** Search seed for the optimize study (the opt default). */
    std::uint64_t optSeed = 0x0417c001ULL;
    /**
     * Per-request deadline (ms of wall time from admission to the
     * start of evaluation); 0 = none.  Excluded from the canonical
     * fingerprint: it changes whether the answer arrives, never
     * what the answer is.
     */
    double deadlineMs = 0.0;

    bool operator==(const Request &o) const
    {
        return proto == o.proto && study == o.study &&
               platform == o.platform && servers == o.servers &&
               days == o.days && meltC == o.meltC &&
               waxLiters == o.waxLiters &&
               utilization == o.utilization &&
               horizonS == o.horizonS && scenario == o.scenario &&
               faults == o.faults &&
               plantBackend == o.plantBackend &&
               weather == o.weather && placement == o.placement &&
               objective == o.objective && budget == o.budget &&
               restarts == o.restarts && optSeed == o.optSeed &&
               deadlineMs == o.deadlineMs;
    }
};

/**
 * Parse and validate a request document.
 *
 * Strict on both syntax and vocabulary: unknown keys, wrong value
 * types, out-of-range values, and oversized documents are all
 * FatalErrors whose message carries a byte offset where one exists.
 *
 * @throws FatalError - callers map it to an ErrorKind::Malformed
 *         reply, so a hostile request can never take the daemon
 *         down.
 */
Request parseRequest(const std::string &json,
                     std::size_t max_bytes = 64 * 1024);

/** Serialize a request (canonical key order, defaults included). */
std::string writeRequest(const Request &req);

/**
 * Canonical fingerprint text: every result-affecting field in fixed
 * order with %.17g doubles.  Two requests evaluate bit-identically
 * iff their canonical texts match, so this string is both the cache
 * key preimage and the collision tiebreaker stored beside it.
 */
std::string canonicalText(const Request &req);

/** @return FNV-1a (64-bit) over canonicalText(req). */
std::uint64_t fingerprint(const Request &req);

/** Flat result payload (golden-key style dotted metric names). */
using Result = std::map<std::string, double>;

/** One reply: a result or a typed rejection. */
struct Reply
{
    /** True when `result` is valid; false when `error` is. */
    bool ok = false;
    /** Rejection category (valid when !ok). */
    ErrorKind error = ErrorKind::Malformed;
    /** Human-readable rejection detail (valid when !ok). */
    std::string detail;
    /** True when the result came from the cache or was coalesced
     *  onto another request's in-flight evaluation. */
    bool cacheHit = false;
    /** Canonical fingerprint of the request (0 when unparseable). */
    std::uint64_t fingerprintValue = 0;
    /** Wall time spent evaluating (0 on a cache hit). */
    double evalMs = 0.0;
    /** The study's flat result keys (valid when ok). */
    Result result;

    static Reply okReply(std::uint64_t fp, bool cache_hit,
                         double eval_ms, Result result);
    static Reply errorReply(ErrorKind kind, const std::string &detail,
                            std::uint64_t fp = 0);

    /** Serialize to the flat reply JSON described above. */
    std::string toJson() const;

    /** Parse toJson() output. @throws FatalError. */
    static Reply fromJson(const std::string &json);
};

/** Framing limits shared by readers and writers. */
struct FrameLimits
{
    /** Largest payload accepted or emitted (bytes). */
    std::size_t maxPayloadBytes = 64 * 1024;
};

/** Outcome of one FrameDecoder::next() or finish() call. */
enum class FrameStatus
{
    Ok,        //!< `payload` holds a complete frame payload.
    Eof,       //!< Clean end of stream before any header byte.
    Malformed, //!< Bad header, oversized length, or short payload.
};

/** One parsed frame (or the diagnostic for a rejected one). */
struct FrameResult
{
    FrameStatus status = FrameStatus::Eof;
    /** Payload bytes (Ok only). */
    std::string payload;
    /** What was wrong (Malformed only). */
    std::string diagnostic;
    /**
     * Malformed only: true when the stream was resynchronized (an
     * oversized frame was drained) and later frames can still be
     * served; false when the stream position is unrecoverable and
     * the connection should be dropped after the error reply.
     */
    bool recoverable = false;
};

/** @return One frame: the "tts-frame <len>\n" header + payload. */
std::string encodeFrame(const std::string &payload);

/** Write encodeFrame(payload). @throws FatalError if the payload
 *  exceeds limits.maxPayloadBytes. */
void writeFrame(std::ostream &out, const std::string &payload,
                const FrameLimits &limits = FrameLimits{});

/**
 * The frame reader.  Incremental, for non-blocking byte sources:
 * the session mux feeds it whatever read() returned, and next()
 * yields a frame only once its bytes have all been fed.  It never
 * throws on hostile input (see FrameResult).  An oversized frame is
 * drained so the stream resynchronizes, and a client dribbling an
 * endless newline-free preamble is cut off one byte past the
 * 64-byte header cap with a typed malformed frame instead of
 * growing a buffer forever.
 */
class FrameDecoder
{
  public:
    explicit FrameDecoder(FrameLimits limits = FrameLimits{})
        : limits_(limits)
    {
    }

    /** Append raw bytes from the transport. */
    void feed(const char *data, std::size_t n);

    /**
     * Pull the next complete frame or framing error.
     *
     * @return True with out->status Ok or Malformed; false when more
     *         bytes are needed first.  After an unrecoverable
     *         Malformed result the decoder is poisoned and next()
     *         keeps returning that result.
     */
    bool next(FrameResult *out);

    /**
     * Note end-of-stream; call it once next() returns false.
     * @return Eof when the decoder sits on a frame boundary with
     *         nothing buffered; Malformed (unrecoverable) when the
     *         peer hung up mid-frame, with the byte counts of a
     *         truncated payload ("12 of 20 declared bytes").
     */
    FrameResult finish() const;

    /** @return Bytes buffered but not yet consumed by next(). */
    std::size_t buffered() const { return buf_.size() - pos_; }

  private:
    enum class State
    {
        Header,  //!< Accumulating a header line.
        Payload, //!< Waiting for a declared payload.
        Drain,   //!< Discarding an oversized payload.
        Poisoned,//!< Unrecoverable; next() replays `poison_`.
    };

    void compact();

    FrameLimits limits_;
    State state_ = State::Header;
    std::string buf_;
    std::size_t pos_ = 0;      //!< Consumed prefix of buf_.
    std::size_t want_ = 0;     //!< Payload/drain bytes outstanding.
    std::size_t declared_ = 0; //!< Length the last header declared.
    FrameResult poison_;
};

} // namespace serve
} // namespace tts

#endif // TTS_SERVE_PROTOCOL_HH

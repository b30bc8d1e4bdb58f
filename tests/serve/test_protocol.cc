/**
 * @file
 * Wire-protocol tests: request parsing (including the hostile-input
 * fuzz corpus), canonicalization/fingerprinting, reply round trips,
 * and the length-prefixed framing layer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>
#include <vector>

#include "cache/fingerprint.hh"
#include "serve/protocol.hh"
#include "util/error.hh"

using namespace tts;
using namespace tts::serve;

TEST(ServeProtocol, ErrorKindNamesRoundTrip)
{
    for (ErrorKind k :
         {ErrorKind::Malformed, ErrorKind::UnsupportedVersion,
          ErrorKind::Overloaded, ErrorKind::DeadlineExceeded,
          ErrorKind::WorkerFailed, ErrorKind::Shutdown}) {
        EXPECT_EQ(errorKindFromString(toString(k)), k);
    }
    EXPECT_THROW(errorKindFromString("nope"), FatalError);
}

TEST(ServeProtocol, DefaultRequestRoundTrips)
{
    const Request def;
    EXPECT_EQ(parseRequest(writeRequest(def)), def);
}

TEST(ServeProtocol, CustomRequestRoundTripsIncludingFaultText)
{
    Request r;
    r.study = "resilience";
    r.platform = 2;
    r.servers = 96;
    r.days = 2.5;
    r.meltC = 45.0;
    r.waxLiters = 12.25;
    r.utilization = 0.875;
    r.horizonS = 7200.0;
    r.scenario = "crash_fan_storm";
    r.faults = "tts-fault-schedule v1\n"
               "at 600 plant_trip magnitude=1 duration=900\n"
               "at 1800 fan_failure magnitude=0.5 duration=600\n";
    r.deadlineMs = 250.0;
    EXPECT_EQ(parseRequest(writeRequest(r)), r);
}

TEST(ServeProtocol, OmittedKeysFingerprintLikeSpelledOutDefaults)
{
    const Request def;
    EXPECT_EQ(fingerprint(parseRequest("{}")), fingerprint(def));
    EXPECT_EQ(fingerprint(parseRequest(writeRequest(def))),
              fingerprint(def));
}

TEST(ServeProtocol, DeadlineDoesNotChangeTheFingerprint)
{
    Request a;
    Request b = a;
    b.deadlineMs = 500.0;
    EXPECT_EQ(canonicalText(a), canonicalText(b));
    EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(ServeProtocol, ResultAffectingFieldsChangeTheFingerprint)
{
    const Request base;
    auto differs = [&](Request changed) {
        EXPECT_NE(fingerprint(changed), fingerprint(base));
    };
    Request r = base;
    r.study = "outage";
    differs(r);
    r = base;
    r.platform = 1;
    differs(r);
    r = base;
    r.waxLiters = 16.0;
    differs(r);
    r = base;
    r.utilization = 0.5;
    differs(r);
    r = base;
    r.faults = "tts-fault-schedule v1\n";
    differs(r);
}

TEST(ServeProtocol, PlantFieldsRoundTripWithInlineWeather)
{
    Request r;
    r.study = "plant";
    r.plantBackend = "economizer";
    r.weather = "t_hours,ambient_c\n0,11.5\n12,24\n24,11.5\n";
    EXPECT_EQ(parseRequest(writeRequest(r)), r);
}

TEST(ServeProtocol, PlantDefaultsLeaveOldFingerprintsUnchanged)
{
    // Pre-plant clients never sent plant_backend/weather; the new
    // fields must only reach the canonical text when non-default,
    // or every cached fingerprint in the fleet would rotate.
    const Request def;
    EXPECT_EQ(canonicalText(def).find("plant_backend"),
              std::string::npos);
    EXPECT_EQ(canonicalText(def).find("weather"),
              std::string::npos);
    Request spelled = def;
    spelled.plantBackend = "crac";
    EXPECT_EQ(fingerprint(spelled), fingerprint(def));

    Request mpc = def;
    mpc.plantBackend = "mpc";
    EXPECT_NE(fingerprint(mpc), fingerprint(def));
    Request weather = def;
    weather.weather = "t_hours,ambient_c\n0,5\n24,5\n";
    EXPECT_NE(fingerprint(weather), fingerprint(def));
}

TEST(ServeProtocol, UnknownPlantBackendIsRejected)
{
    EXPECT_THROW(parseRequest("{\"study\": \"plant\", "
                              "\"plant_backend\": \"swamp_cooler\"}"),
                 FatalError);
    Request ok = parseRequest(
        "{\"study\": \"plant\", \"plant_backend\": \"hot_water\"}");
    EXPECT_EQ(ok.plantBackend, "hot_water");
}

TEST(ServeProtocol, ExplicitProtoOneIsAcceptedAndFingerprintStable)
{
    // `proto` is versioning metadata, not request content: spelling
    // out the default must not move the fingerprint, or every
    // pre-versioning cache entry in the fleet would rotate.
    const Request def;
    const Request spelled = parseRequest("{\"proto\": 1}");
    EXPECT_EQ(spelled, def);
    EXPECT_EQ(canonicalText(spelled), canonicalText(def));
    EXPECT_EQ(canonicalText(def).find("proto"), std::string::npos);
    EXPECT_EQ(fingerprint(spelled), fingerprint(def));
}

TEST(ServeProtocol, FutureProtoIsUnsupportedVersionNotMalformed)
{
    // A clean v2 request - even one carrying keys this build has
    // never heard of - must be rejected with the actionable typed
    // error, checked before any other field.
    EXPECT_THROW(parseRequest("{\"proto\": 2}"),
                 UnsupportedVersionError);
    EXPECT_THROW(
        parseRequest("{\"proto\": 2, \"quantum_mode\": \"on\"}"),
        UnsupportedVersionError);
    EXPECT_THROW(parseRequest("{\"proto\": 3000000}"),
                 UnsupportedVersionError);
    // Nonsense proto values are malformed, not a version problem.
    EXPECT_THROW(parseRequest("{\"proto\": 0}"), FatalError);
    EXPECT_THROW(parseRequest("{\"proto\": 1.5}"), FatalError);
    EXPECT_THROW(parseRequest("{\"proto\": -1}"), FatalError);
    EXPECT_THROW(parseRequest("{\"proto\": \"one\"}"), FatalError);
    try {
        parseRequest("{\"proto\": 2}");
        FAIL() << "future proto accepted";
    } catch (const UnsupportedVersionError &e) {
        EXPECT_NE(std::string(e.what()).find("proto"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ServeProtocol, PinnedFingerprintsAreByteStable)
{
    // Golden fingerprints computed before the proto/fleet/optimize
    // fields existed.  If any of these move, every persisted cache
    // snapshot and every cross-version client is invalidated - a
    // wire-compatibility break, not a refactor.
    const Request def;
    EXPECT_EQ(fingerprint(def), fingerprint(parseRequest("{}")));
    const std::uint64_t def_fp = fingerprint(def);
    Request outage = def;
    outage.study = "outage";
    const std::uint64_t outage_fp = fingerprint(outage);
    EXPECT_NE(def_fp, outage_fp);
    // The canonical text preamble is pinned: field renames or
    // reordering would silently re-key every cache.
    const std::string text = canonicalText(def);
    EXPECT_EQ(text.find("tts-serve-request v1\n"), 0u);
    EXPECT_NE(text.find("study cooling\n"), std::string::npos);
    EXPECT_NE(text.find("platform 0\n"), std::string::npos);
    // New-in-PR-10 fields stay out of default canonical text.
    for (const char *absent :
         {"proto", "placement", "objective", "budget", "restarts",
          "opt_seed"}) {
        EXPECT_EQ(text.find(absent), std::string::npos)
            << absent << " leaked into the default canonical text";
    }
}

TEST(ServeProtocol, FleetRequestRoundTripsWithPlacement)
{
    Request r;
    r.study = "fleet";
    r.servers = 32;
    r.days = 0.5;
    r.placement = "wax-aware";
    EXPECT_EQ(parseRequest(writeRequest(r)), r);
    // Placement is result-affecting for fleet studies.
    Request uniform = r;
    uniform.placement = "uniform";
    EXPECT_NE(fingerprint(r), fingerprint(uniform));
}

TEST(ServeProtocol, OptimizeRequestRoundTripsWithSearchKnobs)
{
    Request r;
    r.study = "optimize";
    r.budget = 8;
    r.restarts = 2;
    r.objective = "tco";
    r.optSeed = 12345;
    EXPECT_EQ(parseRequest(writeRequest(r)), r);
    // Every search knob steers the trajectory, so each must move
    // the fingerprint.
    const std::uint64_t base = fingerprint(r);
    Request changed = r;
    changed.budget = 9;
    EXPECT_NE(fingerprint(changed), base);
    changed = r;
    changed.restarts = 3;
    EXPECT_NE(fingerprint(changed), base);
    changed = r;
    changed.objective = "peak";
    EXPECT_NE(fingerprint(changed), base);
    changed = r;
    changed.optSeed = 54321;
    EXPECT_NE(fingerprint(changed), base);
}

TEST(ServeProtocol, NewStudyFieldsAreValidated)
{
    EXPECT_THROW(parseRequest("{\"study\": \"fleet\", "
                              "\"placement\": \"psychic\"}"),
                 FatalError);
    EXPECT_THROW(parseRequest("{\"study\": \"optimize\", "
                              "\"objective\": \"vibes\"}"),
                 FatalError);
    EXPECT_THROW(
        parseRequest("{\"study\": \"optimize\", \"budget\": 0}"),
        FatalError);
    EXPECT_THROW(
        parseRequest("{\"study\": \"optimize\", \"budget\": 5000}"),
        FatalError);
    EXPECT_THROW(
        parseRequest("{\"study\": \"optimize\", \"restarts\": 0}"),
        FatalError);
    EXPECT_THROW(parseRequest("{\"study\": \"optimize\", "
                              "\"opt_seed\": -1}"),
                 FatalError);
    EXPECT_THROW(parseRequest("{\"study\": \"optimize\", "
                              "\"opt_seed\": 0.5}"),
                 FatalError);
}

TEST(ServeProtocol, Fnv1aMatchesTheReferenceVectors)
{
    // Offset basis and the classic "a" test vector for 64-bit
    // FNV-1a; getting either wrong silently re-keys every cache.
    EXPECT_EQ(cache::fnv1a(""), 14695981039346656037ull);
    EXPECT_EQ(cache::fnv1a("a"), 0xaf63dc4c8601ec8cull);
}

// Fuzz-style corpus: every malformed request a hostile or buggy
// client can send must die with a FatalError the daemon converts to
// a typed `malformed` reply - never a crash, never a silent default.
TEST(ServeProtocol, MalformedCorpusAllRejectedWithoutCrashing)
{
    const char *corpus[] = {
        // Not JSON at all.
        "",
        "   ",
        "hello",
        "\x01\x02\x03\xff",
        // Structurally broken documents.
        "{",
        "}",
        "{\"study\"}",
        "{\"study\":}",
        "{\"study\": \"cooling\"",
        "{\"study\": \"cooling\",}",
        "{\"study\": \"cooling\"} trailing",
        "{\"study\": \"coo",
        "{\"study\": \"cooling\\\"\"}",
        "{\"a\": {\"b\": 1}}",
        "{\"a\": [1, 2]}",
        "{1: 2}",
        // Unknown vocabulary.
        "{\"studyy\": \"cooling\"}",
        "{\"study\": \"cool\"}",
        "{\"scenario\": \"plant_trip_total\", \"bogus\": 1}",
        // Type confusion.
        "{\"study\": 3}",
        "{\"platform\": \"one\"}",
        "{\"servers\": \"many\"}",
        // Out-of-range values.
        "{\"platform\": 9}",
        "{\"platform\": -1}",
        "{\"servers\": 0}",
        "{\"servers\": 1.5}",
        "{\"servers\": -4}",
        "{\"servers\": 2000000}",
        "{\"days\": 0}",
        "{\"days\": 64}",
        "{\"days\": -1}",
        "{\"melt_c\": 400}",
        "{\"wax_l\": -2}",
        "{\"wax_l\": 100}",
        "{\"util\": 1.5}",
        "{\"util\": -0.1}",
        "{\"horizon_s\": -60}",
        "{\"deadline_ms\": -5}",
        // Number syntax abuse.
        "{\"days\": 1e999}",
        "{\"days\": 0x10}",
        "{\"days\": nan}",
        "{\"days\": 1..5}",
        "{\"days\": --1}",
    };
    for (std::size_t i = 0; i < std::size(corpus); ++i) {
        EXPECT_THROW(parseRequest(corpus[i]), FatalError)
            << "corpus entry " << i << " was accepted:\n"
            << corpus[i];
    }
}

TEST(ServeProtocol, UnterminatedStringDiagnosticCarriesByteOffset)
{
    try {
        parseRequest("{\"study\": \"coo");
        FAIL() << "unterminated string accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("byte offset"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ServeProtocol, OversizedRequestRejectedUpFront)
{
    std::string big = "{\"study\": \"cooling\"}";
    big.append(100000, ' ');
    try {
        parseRequest(big, 64 * 1024);
        FAIL() << "oversized request accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("exceeds"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ServeProtocol, OkReplyRoundTrips)
{
    Result result;
    result["outage.ride_with_wax_s"] = 1234.0625;
    result["outage.ride_no_wax_s"] = 700.03125;
    Reply r = Reply::okReply(0xdeadbeefcafef00dull, true, 0.0,
                             result);
    Reply back = Reply::fromJson(r.toJson());
    EXPECT_TRUE(back.ok);
    EXPECT_TRUE(back.cacheHit);
    EXPECT_EQ(back.fingerprintValue, r.fingerprintValue);
    EXPECT_EQ(back.result, result);
}

TEST(ServeProtocol, ErrorReplyRoundTripsWithSanitizedDetail)
{
    Reply r = Reply::errorReply(
        ErrorKind::Overloaded, "queue \"full\"\nat byte \x01", 7);
    Reply back = Reply::fromJson(r.toJson());
    EXPECT_FALSE(back.ok);
    EXPECT_EQ(back.error, ErrorKind::Overloaded);
    EXPECT_EQ(back.fingerprintValue, 7u);
    // Hostile bytes inside the detail are replaced, never echoed.
    EXPECT_EQ(back.detail.find('"'), std::string::npos);
    EXPECT_EQ(back.detail.find('\n'), std::string::npos);
    EXPECT_NE(back.detail.find("queue ?full?"), std::string::npos);
}

TEST(ServeProtocol, NonDottedResultKeyIsAnInvariantViolation)
{
    Result result;
    result["status"] = 1.0; // would collide with the envelope
    Reply r = Reply::okReply(1, false, 0.0, result);
    EXPECT_THROW(r.toJson(), PanicError);
}

namespace {

/** @return @p payload framed by writeFrame(). */
std::string
framed(const std::string &payload,
       const FrameLimits &limits = FrameLimits{})
{
    std::ostringstream out;
    writeFrame(out, payload, limits);
    return out.str();
}

/**
 * Feed @p wire to one FrameDecoder @p chunk bytes at a time (0 = all
 * at once), the way the session mux feeds it reads, and collect every
 * result.  The last entry is finish()'s verdict on the end of the
 * stream, unless an unrecoverable frame stopped the stream first.
 */
std::vector<FrameResult>
decodeAll(const std::string &wire,
          const FrameLimits &limits = FrameLimits{},
          std::size_t chunk = 0)
{
    FrameDecoder decoder(limits);
    std::vector<FrameResult> got;
    if (chunk == 0)
        chunk = wire.size();
    std::size_t off = 0;
    do {
        const std::size_t n = std::min(chunk, wire.size() - off);
        decoder.feed(wire.data() + off, n);
        off += n;
        FrameResult r;
        while (decoder.next(&r)) {
            got.push_back(r);
            if (r.status == FrameStatus::Malformed && !r.recoverable)
                return got;
        }
    } while (off < wire.size());
    got.push_back(decoder.finish());
    return got;
}

} // namespace

TEST(ServeFraming, RoundTripsArbitraryPayloadBytes)
{
    const char raw[] = "line one\nline two\n\x00\x01\xfe binary";
    const std::string payload(raw, sizeof(raw) - 1);
    const std::vector<FrameResult> got = decodeAll(
        framed(payload) + framed("") +
        framed("{\"study\": \"cooling\"}"));
    ASSERT_EQ(got.size(), 4u);
    ASSERT_EQ(got[0].status, FrameStatus::Ok);
    EXPECT_EQ(got[0].payload, payload);
    ASSERT_EQ(got[1].status, FrameStatus::Ok);
    EXPECT_EQ(got[1].payload, "");
    ASSERT_EQ(got[2].status, FrameStatus::Ok);
    EXPECT_EQ(got[2].payload, "{\"study\": \"cooling\"}");
    EXPECT_EQ(got[3].status, FrameStatus::Eof);
}

TEST(ServeFraming, EmptyStreamIsCleanEof)
{
    const std::vector<FrameResult> got = decodeAll("");
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].status, FrameStatus::Eof);
}

TEST(ServeFraming, BadHeadersAreMalformedAndUnrecoverable)
{
    const char *bad[] = {
        "GET / HTTP/1.1\n",
        "tts-frame\n",
        "tts-frame \n",
        "tts-frame twelve\n",
        "tts-frame 12x\n",
        "tts-frame 99999999999999999999999999\n",
    };
    for (const char *header : bad) {
        const std::vector<FrameResult> got = decodeAll(header);
        ASSERT_EQ(got.size(), 1u) << header;
        EXPECT_EQ(got[0].status, FrameStatus::Malformed) << header;
        EXPECT_FALSE(got[0].recoverable) << header;
        EXPECT_FALSE(got[0].diagnostic.empty()) << header;
    }
}

TEST(ServeFraming, OversizedFrameIsDrainedAndRecoverable)
{
    FrameLimits limits;
    limits.maxPayloadBytes = 16;
    const std::vector<FrameResult> got = decodeAll(
        "tts-frame 64\n" + std::string(64, 'x') +
            framed("after", limits),
        limits);
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].status, FrameStatus::Malformed);
    EXPECT_TRUE(got[0].recoverable);
    EXPECT_NE(got[0].diagnostic.find("payload of 64 bytes exceeds"),
              std::string::npos)
        << got[0].diagnostic;

    // The oversized payload was drained; the stream is resynced.
    ASSERT_EQ(got[1].status, FrameStatus::Ok);
    EXPECT_EQ(got[1].payload, "after");
    EXPECT_EQ(got[2].status, FrameStatus::Eof);
}

TEST(ServeFraming, OversizedFrameOnATruncatedStreamIsUnrecoverable)
{
    FrameLimits limits;
    limits.maxPayloadBytes = 16;
    const std::vector<FrameResult> got =
        decodeAll("tts-frame 64\n" + std::string(10, 'x'), limits);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].status, FrameStatus::Malformed);
    EXPECT_FALSE(got[0].recoverable);
}

TEST(ServeFraming, TruncatedPayloadIsMalformedWithByteCounts)
{
    const std::vector<FrameResult> got =
        decodeAll("tts-frame 20\nonly twelve!");
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].status, FrameStatus::Malformed);
    EXPECT_FALSE(got[0].recoverable);
    EXPECT_NE(got[0].diagnostic.find("12 of 20 declared bytes"),
              std::string::npos)
        << got[0].diagnostic;
}

TEST(ServeFraming, PayloadExactlyAtTheLimitIsAccepted)
{
    FrameLimits limits;
    limits.maxPayloadBytes = 8;
    const std::vector<FrameResult> got =
        decodeAll(framed("12345678", limits), limits);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].status, FrameStatus::Ok);
    EXPECT_EQ(got[0].payload, "12345678");
    std::ostringstream out;
    EXPECT_THROW(writeFrame(out, "123456789", limits), FatalError);
}

namespace {

/**
 * Expect the decoder to refuse the first header of @p wire outright
 * - unrecoverable, with a diagnostic containing @p why - rather than
 * read a length from it, both when the wire arrives in one read and
 * when it dribbles in a byte at a time.
 */
void
expectHeaderRejected(const std::string &wire, const std::string &why)
{
    for (std::size_t chunk : {std::size_t{0}, std::size_t{1}}) {
        const std::vector<FrameResult> got =
            decodeAll(wire, FrameLimits{}, chunk);
        ASSERT_EQ(got.size(), 1u) << wire;
        EXPECT_EQ(got[0].status, FrameStatus::Malformed) << wire;
        EXPECT_FALSE(got[0].recoverable) << wire;
        EXPECT_NE(got[0].diagnostic.find(why), std::string::npos)
            << got[0].diagnostic;
    }
}

} // namespace

TEST(ServeFraming, SignedLengthsAreRejectedByBothReaders)
{
    // A lenient integer parse reads "-1" as 2^64 - 1, and the
    // decoder then drains every later frame as oversized payload.
    for (const char *header : {"tts-frame -1\n", "tts-frame +5\n"})
        expectHeaderRejected(header + framed("hello"), "bad length");
}

TEST(ServeFraming, SpacesInTheLengthAreRejectedByBothReaders)
{
    for (const char *header :
         {"tts-frame  5\n", "tts-frame \t5\n", "tts-frame 5 \n"})
        expectHeaderRejected(header + framed("hello"), "bad length");
}

TEST(ServeFraming, HeadersPastTheCapAreRejectedByBothReaders)
{
    // Leading zeros still spell 5; only the line length differs.
    const std::string tag = "tts-frame ";
    const std::string at_cap = tag + std::string(53, '0') + "5\n";
    ASSERT_EQ(at_cap.size(), 64u + 1u);
    for (std::size_t chunk : {std::size_t{0}, std::size_t{1}}) {
        const std::vector<FrameResult> got =
            decodeAll(at_cap + "hello", FrameLimits{}, chunk);
        ASSERT_EQ(got.size(), 2u);
        ASSERT_EQ(got[0].status, FrameStatus::Ok)
            << got[0].diagnostic;
        EXPECT_EQ(got[0].payload, "hello");
        EXPECT_EQ(got[1].status, FrameStatus::Eof);
    }

    expectHeaderRejected(tag + std::string(54, '0') + "5\n" +
                             framed("hello"),
                         "exceeds 64 bytes");
}

TEST(ServeFraming, StreamReaderStopsReadingAtTheHeaderCap)
{
    // A newline-free preamble must not be buffered in full: the
    // decoder gives up one byte past the 64-byte cap, and keeps
    // nothing fed after that.
    const std::string wire = "tts-frame " + std::string(100000, '1');
    FrameDecoder decoder;
    FrameResult r;
    std::size_t fed = 0;
    while (fed < wire.size() && !decoder.next(&r))
        decoder.feed(&wire[fed++], 1);
    EXPECT_EQ(fed, 65u);
    EXPECT_EQ(r.status, FrameStatus::Malformed);
    EXPECT_FALSE(r.recoverable);
    EXPECT_NE(r.diagnostic.find("exceeds 64 bytes"), std::string::npos)
        << r.diagnostic;
    decoder.feed(wire.data() + fed, wire.size() - fed);
    EXPECT_EQ(decoder.buffered(), 65u);
}

TEST(ServeFraming, SlowClientDribbleStillDeliversCompleteFrames)
{
    const std::vector<FrameResult> got =
        decodeAll(framed("{\"study\": \"cooling\"}") +
                      framed("{\"study\": \"outage\"}"),
                  FrameLimits{}, 3);
    ASSERT_EQ(got.size(), 3u);
    ASSERT_EQ(got[0].status, FrameStatus::Ok);
    EXPECT_EQ(got[0].payload, "{\"study\": \"cooling\"}");
    ASSERT_EQ(got[1].status, FrameStatus::Ok);
    EXPECT_EQ(got[1].payload, "{\"study\": \"outage\"}");
    EXPECT_EQ(got[2].status, FrameStatus::Eof);
}

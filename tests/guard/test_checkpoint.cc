/** @file Tests for the CRC-protected checkpoint format. */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <typeinfo>
#include <vector>

#include "guard/checkpoint.hh"
#include "util/error.hh"

namespace tts {
namespace guard {
namespace {

TEST(Crc32, MatchesTheStandardCheckValue)
{
    // The canonical CRC-32 (IEEE 802.3) check value.
    EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
    EXPECT_EQ(crc32(""), 0x00000000u);
}

TEST(Checkpoint, RoundTripsEveryValueType)
{
    CheckpointWriter w;
    w.section("alpha");
    w.put("pi", 3.14159265358979312);
    w.put("tiny", 2.2250738585072014e-308);  // DBL_MIN.
    w.put("negzero", -0.0);
    w.putU64("big", 18446744073709551615ull);
    w.putI64("neg", -42);
    w.putBool("yes", true);
    w.putBool("no", false);
    w.putToken("name", "crash_fan_storm");
    w.putVector("vals", {1.0, -2.5e-7, 0.083927817053314313});
    w.putVector("empty", {});
    w.section("beta");
    w.putU64Vector("ids", {0, 7, 18446744073709551615ull});

    CheckpointReader r(w.finish(), "test");
    r.expectSection("alpha");
    EXPECT_EQ(r.expect("pi"), 3.14159265358979312);
    EXPECT_EQ(r.expect("tiny"), 2.2250738585072014e-308);
    EXPECT_EQ(r.expect("negzero"), 0.0);
    EXPECT_EQ(r.expectU64("big"), 18446744073709551615ull);
    EXPECT_EQ(r.expectI64("neg"), -42);
    EXPECT_TRUE(r.expectBool("yes"));
    EXPECT_FALSE(r.expectBool("no"));
    EXPECT_EQ(r.expectToken("name"), "crash_fan_storm");
    std::vector<double> vals = r.expectVector("vals");
    ASSERT_EQ(vals.size(), 3u);
    EXPECT_EQ(vals[2], 0.083927817053314313);  // Bit-exact.
    EXPECT_TRUE(r.expectVector("empty").empty());
    EXPECT_TRUE(r.peekSection("beta"));
    EXPECT_FALSE(r.peekSection("gamma"));
    r.expectSection("beta");
    std::vector<std::uint64_t> ids = r.expectU64Vector("ids");
    ASSERT_EQ(ids.size(), 3u);
    EXPECT_EQ(ids[2], 18446744073709551615ull);
    r.expectEnd();
}

TEST(Checkpoint, SingleBitCorruptionIsDetected)
{
    CheckpointWriter w;
    w.section("s");
    w.put("value", 1234.5);
    std::string doc = w.finish();
    std::size_t pos = doc.find("1234.5");
    ASSERT_NE(pos, std::string::npos);
    doc[pos] = '7';
    try {
        CheckpointReader r(doc, "test");
        FAIL() << "corrupt document accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("crc"),
                  std::string::npos);
    }
}

TEST(Checkpoint, CrcMismatchNamesExpectedAndActualValues)
{
    // A one-byte flip must be rejected with a diagnostic carrying
    // both sides of the comparison: the CRC stored in the trailer
    // and the CRC computed over the (corrupted) body.  "Mismatch"
    // alone leaves an operator unable to tell a damaged body from a
    // damaged trailer.
    CheckpointWriter w;
    w.section("s");
    w.put("value", 1234.5);
    std::string doc = w.finish();
    std::size_t pos = doc.find("1234.5");
    ASSERT_NE(pos, std::string::npos);
    doc[pos] = '7';

    // Recompute both sides independently of the reader.
    std::size_t trailer = doc.rfind("crc32 ");
    ASSERT_NE(trailer, std::string::npos);
    const std::string expected_hex = doc.substr(trailer + 6, 8);
    char actual_hex[16];
    std::snprintf(actual_hex, sizeof(actual_hex), "%08x",
                  crc32(doc.substr(0, trailer)));
    ASSERT_NE(expected_hex, actual_hex);

    try {
        CheckpointReader r(doc, "diag-test");
        FAIL() << "corrupt document accepted";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("expected " + expected_hex),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find(std::string("actual ") + actual_hex),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("diag-test"), std::string::npos) << msg;
    }
}

TEST(Checkpoint, TruncationIsDetected)
{
    CheckpointWriter w;
    w.section("s");
    for (int i = 0; i < 10; ++i)
        w.put("k" + std::to_string(i), i * 1.5);
    std::string doc = w.finish();
    // Drop a middle line but keep the valid-looking trailer.
    std::size_t a = doc.find("k4 = ");
    std::size_t b = doc.find("k5 = ");
    ASSERT_NE(a, std::string::npos);
    std::string truncated = doc.substr(0, a) + doc.substr(b);
    EXPECT_THROW(CheckpointReader r(truncated, "test"), FatalError);
}

TEST(Checkpoint, UnsupportedVersionIsRejected)
{
    // Hand-build a v999 document with a valid CRC: the version
    // check, not the CRC check, must reject it.
    std::string body = "tts-checkpoint v999\nsection s\n";
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08x", crc32(body));
    std::string doc = body + "crc32 " + buf + "\n";
    try {
        CheckpointReader r(doc, "test");
        FAIL() << "future version accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("header"),
                  std::string::npos);
    }
}

TEST(Checkpoint, MissingTrailerIsRejected)
{
    EXPECT_THROW(CheckpointReader r("tts-checkpoint v1\n", "test"),
                 FatalError);
}

TEST(Checkpoint, ReaderEnforcesKeyAndSectionOrder)
{
    CheckpointWriter w;
    w.section("s");
    w.put("a", 1.0);
    w.put("b", 2.0);
    std::string doc = w.finish();

    CheckpointReader r1(doc, "test");
    EXPECT_THROW(r1.expectSection("wrong"), FatalError);

    CheckpointReader r2(doc, "test");
    r2.expectSection("s");
    EXPECT_THROW(r2.expect("b"), FatalError);  // Out of order.

    CheckpointReader r3(doc, "test");
    r3.expectSection("s");
    EXPECT_EQ(r3.expect("a"), 1.0);
    EXPECT_THROW(r3.expectEnd(), FatalError);  // Unread content.
}

TEST(Checkpoint, ReaderRejectsTypeConfusion)
{
    CheckpointWriter w;
    w.section("s");
    w.put("fractional", 1.5);
    w.putToken("word", "hello");
    std::string doc = w.finish();
    CheckpointReader r(doc, "test");
    r.expectSection("s");
    EXPECT_THROW(r.expectU64("fractional"), FatalError);
    // After the throw the reader is unusable by contract; build a
    // fresh one to check the bool path.
    CheckpointReader r2(doc, "test");
    r2.expectSection("s");
    r2.expect("fractional");
    EXPECT_THROW(r2.expectBool("word"), FatalError);
}

TEST(Checkpoint, TokensMustNotContainWhitespace)
{
    CheckpointWriter w;
    EXPECT_THROW(w.putToken("k", "two words"), FatalError);
    EXPECT_THROW(w.putToken("k", "tab\tseparated"), FatalError);
}

/** @return @p body sealed with its CRC trailer: a document only the
 *  parser can reject. */
std::string
sealed(const std::string &body)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08x", crc32(body));
    return body + "crc32 " + buf + "\n";
}

/** Expect reading key v of section s out of @p line to raise a typed
 *  tts::Error that names the key. */
template <typename Read>
void
expectRejectedByKey(const std::string &line, Read read)
{
    SCOPED_TRACE(line);
    CheckpointReader r(sealed("tts-checkpoint v1\nsection s\n" + line +
                              "\n"),
                       "test");
    r.expectSection("s");
    try {
        read(r);
        ADD_FAILURE() << "accepted";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("'v'"), std::string::npos)
            << e.what();
    } catch (const std::exception &e) {
        ADD_FAILURE() << "untyped " << typeid(e).name() << ": "
                      << e.what();
    }
}

TEST(Checkpoint, VectorLengthMismatchIsRejected)
{
    // A vector claiming more entries than present must not read into
    // the following line.
    CheckpointReader r(
        sealed("tts-checkpoint v1\nsection s\nv = 3 1.0 2.0\nnext = 9\n"),
        "test");
    r.expectSection("s");
    EXPECT_THROW(r.expectVector("v"), FatalError);
}

TEST(Checkpoint, UnsignedWordsMustBeWholeAndUnsigned)
{
    auto u64 = [](CheckpointReader &r) { r.expectU64("v"); };
    expectRejectedByKey("v = -1", u64);
    expectRejectedByKey("v = +7", u64);
    expectRejectedByKey("v = 7x", u64);
    expectRejectedByKey("v = 18446744073709551616", u64);
    expectRejectedByKey("v = ", u64);
    auto vec = [](CheckpointReader &r) { r.expectU64Vector("v"); };
    expectRejectedByKey("v = 2 3abc -1", vec);
    expectRejectedByKey("v = 2 3 -1", vec);
    expectRejectedByKey("v = 1 +7", vec);
}

TEST(Checkpoint, SignedWordsAndDoublesMustBeWholeTokens)
{
    // No leading '+' or whitespace, and nothing the writer's %.17g
    // does not emit (hex floats).
    auto i64 = [](CheckpointReader &r) { r.expectI64("v"); };
    expectRejectedByKey("v = +7", i64);
    expectRejectedByKey("v =  7", i64);
    expectRejectedByKey("v = 7 ", i64);
    expectRejectedByKey("v = 9223372036854775808", i64);
    auto dbl = [](CheckpointReader &r) { r.expect("v"); };
    expectRejectedByKey("v = +1.5", dbl);
    expectRejectedByKey("v =  1.5", dbl);
    expectRejectedByKey("v = 0x1p3", dbl);
    expectRejectedByKey("v = 1e400", dbl);
    auto vec = [](CheckpointReader &r) { r.expectVector("v"); };
    expectRejectedByKey("v = 1 +1.5", vec);
    expectRejectedByKey("v = 2 1.5 0x1p3", vec);
}

TEST(Checkpoint, SubnormalAndNonFiniteDoublesRoundTripBitForBit)
{
    const std::vector<double> values = {
        std::numeric_limits<double>::denorm_min(),
        -2.5e-310,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
        -0.0,
    };
    CheckpointWriter w;
    w.section("s");
    for (double v : values)
        w.put("v", v);
    w.putVector("all", values);
    CheckpointReader r(w.finish(), "test");
    r.expectSection("s");
    auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    for (double v : values)
        EXPECT_EQ(bits(r.expect("v")), bits(v));
    const std::vector<double> all = r.expectVector("all");
    ASSERT_EQ(all.size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i)
        EXPECT_EQ(bits(all[i]), bits(values[i])) << i;
    r.expectEnd();
}

TEST(Checkpoint, DoublesInAVectorMustBeWhole)
{
    expectRejectedByKey("v = 1 1.5abc",
                        [](CheckpointReader &r) { r.expectVector("v"); });
    expectRejectedByKey("v = 2 1.5 2.0x",
                        [](CheckpointReader &r) { r.expectVector("v"); });
}

TEST(Checkpoint, ALyingVectorLengthIsATypedError)
{
    // A huge or negative length must neither allocate for it nor
    // escape as std::bad_alloc / std::length_error.
    for (const char *line : {"v = 1000000000000 1", "v = -1 1",
                             "v = 18446744073709551615 1",
                             "v = 1x 1"}) {
        expectRejectedByKey(
            line, [](CheckpointReader &r) { r.expectVector("v"); });
        expectRejectedByKey(
            line, [](CheckpointReader &r) { r.expectU64Vector("v"); });
    }
}

TEST(Checkpoint, FileRoundTripIsAtomicAndExact)
{
    const std::string path =
        testing::TempDir() + "/tts_checkpoint_test.tts";
    CheckpointWriter w;
    w.section("s");
    w.put("x", 0.1 + 0.2);  // 0.30000000000000004 round-trips.
    writeCheckpointFile(path, w.finish());
    // The temp staging file must not linger after the rename.
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good());

    CheckpointReader r(readCheckpointFile(path), path);
    r.expectSection("s");
    EXPECT_EQ(r.expect("x"), 0.1 + 0.2);
    r.expectEnd();
    std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileThrows)
{
    EXPECT_THROW(
        readCheckpointFile("/nonexistent/path/checkpoint.tts"),
        FatalError);
}

} // namespace
} // namespace guard
} // namespace tts

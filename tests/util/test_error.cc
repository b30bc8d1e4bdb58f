/** @file Tests for the error handling primitives. */

#include <gtest/gtest.h>

#include "util/error.hh"

namespace tts {
namespace {

TEST(Error, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config"), FatalError);
}

TEST(Error, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("broken invariant"), PanicError);
}

TEST(Error, FatalMessageIsPreserved)
{
    try {
        fatal("knob out of range");
        FAIL() << "fatal() returned";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("knob out of range"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("fatal"),
                  std::string::npos);
    }
}

TEST(Error, PanicMessageIsPreserved)
{
    try {
        panic("impossible state");
        FAIL() << "panic() returned";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("impossible state"),
                  std::string::npos);
    }
}

TEST(Error, BothDeriveFromError)
{
    EXPECT_THROW(fatal("x"), Error);
    EXPECT_THROW(panic("x"), Error);
}

TEST(Error, RequirePassesOnTrue)
{
    EXPECT_NO_THROW(require(true, "never"));
}

TEST(Error, RequireThrowsOnFalse)
{
    EXPECT_THROW(require(false, "always"), FatalError);
}

TEST(Error, InvariantPassesOnTrue)
{
    EXPECT_NO_THROW(invariant(true, "never"));
}

TEST(Error, InvariantThrowsOnFalse)
{
    EXPECT_THROW(invariant(false, "always"), PanicError);
}

TEST(Error, LiteralMessagesKeepTheirText)
{
    // A literal message takes the overload that builds its string
    // only on failure; the thrown text must not change.
    try {
        require(false, "x");
        FAIL() << "require() returned";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "fatal: x");
    }
    try {
        invariant(false, "x");
        FAIL() << "invariant() returned";
    } catch (const PanicError &e) {
        EXPECT_STREQ(e.what(), "panic: x");
    }
}

} // namespace
} // namespace tts

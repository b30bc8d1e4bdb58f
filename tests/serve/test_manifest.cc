/**
 * @file
 * Manifest warming tests: header validation, warm/hit/fail
 * accounting, concurrent warming of fleet entries, and the
 * warm-start contract (the first post-warm client hits the cache
 * with a bit-identical result).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/daemon.hh"
#include "serve/eval.hh"
#include "serve/manifest.hh"
#include "util/error.hh"

using namespace tts;
using namespace tts::serve;

namespace {

std::string
outageLine(double horizon)
{
    std::ostringstream doc;
    doc << "{\"study\": \"outage\", \"servers\": 8, \"horizon_s\": "
        << horizon << "}";
    return doc.str();
}

std::string
fleetLine(std::size_t servers)
{
    std::ostringstream doc;
    doc << "{\"study\": \"fleet\", \"servers\": " << servers
        << ", \"days\": 0.25}";
    return doc.str();
}

} // namespace

TEST(ServeManifest, MissingHeaderIsFatalWithALineNumber)
{
    Daemon daemon(DaemonConfig{});
    std::istringstream in("{\"study\": \"outage\"}\n");
    try {
        warmFromManifest(in, daemon, "bad.manifest");
        FAIL() << "headerless manifest accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("bad.manifest:1"),
                  std::string::npos)
            << e.what();
    }
    std::istringstream empty("");
    EXPECT_THROW(warmFromManifest(empty, daemon), FatalError);
}

TEST(ServeManifest, CommentsAndBlankLinesAreSkipped)
{
    Daemon daemon(DaemonConfig{});
    std::istringstream in("tts-serve-manifest v1\n"
                          "\n"
                          "# the dashboard's one panel\n"
                          "  # indented comment\n" +
                          outageLine(60.0) + "\n\n");
    const WarmStats warm = warmFromManifest(in, daemon);
    EXPECT_EQ(warm.entries, 1u);
    EXPECT_EQ(warm.warmed, 1u);
    EXPECT_EQ(warm.failed, 0u);
}

TEST(ServeManifest, HeaderOnlyManifestWarmsNothing)
{
    Daemon daemon(DaemonConfig{});
    std::istringstream in("tts-serve-manifest v1\n# empty\n");
    const WarmStats warm = warmFromManifest(in, daemon);
    EXPECT_EQ(warm.entries, 0u);
    EXPECT_EQ(warm.warmed, 0u);
}

TEST(ServeManifest, BadEntriesAreCountedWithLineNumbersNeverFatal)
{
    Daemon daemon(DaemonConfig{});
    std::istringstream in("tts-serve-manifest v1\n" +
                          outageLine(60.0) + "\n"
                          "{\"study\": \"astrology\"}\n" +
                          outageLine(90.0) + "\n");
    const WarmStats warm = warmFromManifest(in, daemon);
    EXPECT_EQ(warm.entries, 3u);
    EXPECT_EQ(warm.warmed, 2u);
    EXPECT_EQ(warm.failed, 1u);
    ASSERT_EQ(warm.failures.size(), 1u);
    EXPECT_NE(warm.failures[0].find("line 3"), std::string::npos)
        << warm.failures[0];
    EXPECT_NE(warm.failures[0].find("malformed"),
              std::string::npos)
        << warm.failures[0];
}

TEST(ServeManifest, DuplicateEntriesCountAsAlreadyCached)
{
    Daemon daemon(DaemonConfig{});
    std::istringstream in("tts-serve-manifest v1\n" +
                          outageLine(60.0) + "\n" +
                          outageLine(60.0) + "\n");
    const WarmStats warm = warmFromManifest(in, daemon);
    EXPECT_EQ(warm.entries, 2u);
    EXPECT_EQ(warm.warmed + warm.alreadyCached, 2u);
    EXPECT_GE(warm.alreadyCached, 1u);
    EXPECT_EQ(warm.failed, 0u);
}

TEST(ServeManifest, WarmedEntriesServeAsBitIdenticalCacheHits)
{
    const std::string doc = outageLine(120.0);
    const Result baseline = evaluate(parseRequest(doc));
    DaemonConfig config;
    config.workers = 2;
    Daemon daemon(config);
    std::istringstream in("tts-serve-manifest v1\n" + doc + "\n");
    const WarmStats warm = warmFromManifest(in, daemon);
    EXPECT_EQ(warm.warmed, 1u);
    const Reply r = daemon.call(doc);
    ASSERT_TRUE(r.ok) << r.detail;
    EXPECT_TRUE(r.cacheHit)
        << "the manifest entry did not pre-warm the cache";
    EXPECT_EQ(r.result, baseline);
}

TEST(ServeManifest, FleetEntriesWarmThroughTheMissBatcher)
{
    // Four fleet entries submitted together all warm the cache.
    DaemonConfig config;
    config.workers = 4;
    Daemon daemon(config);
    std::ostringstream text;
    text << "tts-serve-manifest v1\n";
    for (std::size_t servers : {8u, 12u, 16u, 20u})
        text << fleetLine(servers) << "\n";
    std::istringstream in(text.str());
    const WarmStats warm = warmFromManifest(in, daemon);
    EXPECT_EQ(warm.entries, 4u);
    EXPECT_EQ(warm.warmed, 4u);
    EXPECT_EQ(warm.failed, 0u);
    // The warmed entries answer as cache hits, bit-identical.
    const Result baseline =
        evaluate(parseRequest(fleetLine(8)));
    const Reply r = daemon.call(fleetLine(8));
    ASSERT_TRUE(r.ok) << r.detail;
    EXPECT_TRUE(r.cacheHit);
    EXPECT_EQ(r.result, baseline);
}

TEST(ServeManifest, FileVariantReportsMissingFiles)
{
    Daemon daemon(DaemonConfig{});
    EXPECT_THROW(
        warmManifestFile("/nonexistent/missing.manifest", daemon),
        FatalError);
    const std::string path =
        testing::TempDir() + "/tts_warm.manifest";
    {
        std::ofstream f(path);
        f << "tts-serve-manifest v1\n" << outageLine(60.0) << "\n";
    }
    const WarmStats warm = warmManifestFile(path, daemon);
    EXPECT_EQ(warm.warmed, 1u);
    std::remove(path.c_str());
}

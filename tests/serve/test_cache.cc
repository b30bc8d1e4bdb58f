/**
 * @file
 * ResultCache tests: LRU eviction at tiny capacity, the fingerprint
 * collision guard, crash-safe persistence round trips, and
 * quarantine of corrupted snapshots.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "cache/result_cache.hh"
#include "serve/protocol.hh"
#include "util/error.hh"

using namespace tts;
using namespace tts::serve;
using tts::cache::CacheConfig;
using tts::cache::CacheLoadOutcome;
using tts::cache::ResultCache;

namespace {

Result
resultOf(double seed)
{
    Result r;
    // Deliberately awkward doubles: persistence must round-trip
    // them bit-exactly through the %.17g checkpoint format.
    r["outage.ride_with_wax_s"] = seed * (1.0 / 3.0);
    r["outage.ride_no_wax_s"] = seed + 0.1;
    r["outage.extra_ride_s"] = seed * 1e-7;
    return r;
}

std::string
tempPath(const std::string &name)
{
    const std::string path = testing::TempDir() + "/" + name;
    std::remove(path.c_str());
    std::remove((path + ".corrupt").c_str());
    return path;
}

} // namespace

TEST(ServeCache, MissThenHitThenCounters)
{
    ResultCache cache(CacheConfig{});
    Result out;
    EXPECT_FALSE(cache.find(1, "canon-1", &out));
    cache.insert(1, "canon-1", resultOf(10.0));
    ASSERT_TRUE(cache.find(1, "canon-1", &out));
    EXPECT_EQ(out, resultOf(10.0));
    const auto c = cache.counters();
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.inserts, 1u);
    EXPECT_EQ(c.evictions, 0u);
}

TEST(ServeCache, EvictsLeastRecentlyUsedAtTinyCapacity)
{
    CacheConfig config;
    config.capacity = 2;
    ResultCache cache(config);
    cache.insert(1, "a", resultOf(1.0));
    cache.insert(2, "b", resultOf(2.0));
    Result out;
    // Touch 1 so 2 becomes the LRU victim.
    ASSERT_TRUE(cache.find(1, "a", &out));
    cache.insert(3, "c", resultOf(3.0));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_TRUE(cache.find(1, "a", &out));
    EXPECT_FALSE(cache.find(2, "b", &out));
    EXPECT_TRUE(cache.find(3, "c", &out));
    EXPECT_EQ(cache.counters().evictions, 1u);
}

TEST(ServeCache, ReinsertRefreshesInsteadOfEvicting)
{
    CacheConfig config;
    config.capacity = 2;
    ResultCache cache(config);
    cache.insert(1, "a", resultOf(1.0));
    cache.insert(2, "b", resultOf(2.0));
    cache.insert(1, "a", resultOf(9.0));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.counters().evictions, 0u);
    Result out;
    ASSERT_TRUE(cache.find(1, "a", &out));
    EXPECT_EQ(out, resultOf(9.0));
}

TEST(ServeCache, FingerprintCollisionDegradesToAMiss)
{
    ResultCache cache(CacheConfig{});
    cache.insert(42, "the real canonical text", resultOf(1.0));
    Result out;
    // Same fingerprint, different request: must NOT serve the
    // stored numbers.
    EXPECT_FALSE(cache.find(42, "an impostor with the same fp",
                            &out));
    EXPECT_EQ(cache.counters().collisions, 1u);
    // The real request still hits.
    EXPECT_TRUE(cache.find(42, "the real canonical text", &out));
}

TEST(ServeCache, PersistenceRoundTripsBitExactly)
{
    CacheConfig config;
    config.path = tempPath("tts_serve_cache_rt.ckpt");
    ResultCache a(config);
    EXPECT_EQ(a.load(), CacheLoadOutcome::Fresh);
    a.insert(7, "canon-7", resultOf(7.0));
    a.insert(8, "canon with spaces\nand a newline", resultOf(8.0));
    a.persist();

    ResultCache b(config);
    EXPECT_EQ(b.load(), CacheLoadOutcome::Loaded);
    EXPECT_EQ(b.size(), 2u);
    Result out;
    ASSERT_TRUE(b.find(7, "canon-7", &out));
    EXPECT_EQ(out, resultOf(7.0));
    ASSERT_TRUE(
        b.find(8, "canon with spaces\nand a newline", &out));
    EXPECT_EQ(out, resultOf(8.0));
    std::remove(config.path.c_str());
}

TEST(ServeCache, LoadTruncatesToCapacityKeepingTheMostRecent)
{
    CacheConfig writer;
    writer.path = tempPath("tts_serve_cache_cap.ckpt");
    writer.capacity = 8;
    ResultCache a(writer);
    a.insert(1, "a", resultOf(1.0));
    a.insert(2, "b", resultOf(2.0));
    a.insert(3, "c", resultOf(3.0));
    a.persist();

    CacheConfig reader = writer;
    reader.capacity = 2;
    ResultCache b(reader);
    EXPECT_EQ(b.load(), CacheLoadOutcome::Loaded);
    EXPECT_EQ(b.size(), 2u);
    Result out;
    // Snapshots replay oldest-first, so the oldest entry fell off.
    EXPECT_FALSE(b.find(1, "a", &out));
    EXPECT_TRUE(b.find(2, "b", &out));
    EXPECT_TRUE(b.find(3, "c", &out));
    std::remove(writer.path.c_str());
}

TEST(ServeCache, AutoPersistEveryNInsertsBoundsTheCrashWindow)
{
    CacheConfig config;
    config.path = tempPath("tts_serve_cache_auto.ckpt");
    config.persistEveryInserts = 2;
    ResultCache a(config);
    a.insert(1, "a", resultOf(1.0));
    {
        std::ifstream f(config.path);
        EXPECT_FALSE(f.good()) << "persisted too early";
    }
    a.insert(2, "b", resultOf(2.0));
    // Simulate a crash here: no shutdown persist, but the snapshot
    // already holds both entries.
    ResultCache b(config);
    EXPECT_EQ(b.load(), CacheLoadOutcome::Loaded);
    EXPECT_EQ(b.size(), 2u);
    std::remove(config.path.c_str());
}

TEST(ServeCache, CorruptSnapshotIsQuarantinedNotFatal)
{
    CacheConfig config;
    config.path = tempPath("tts_serve_cache_bad.ckpt");
    ResultCache a(config);
    a.insert(7, "canon-7", resultOf(7.0));
    a.persist();

    // Flip one payload byte; the CRC-32 trailer catches it.
    std::string doc;
    {
        std::ifstream f(config.path, std::ios::binary);
        std::ostringstream buf;
        buf << f.rdbuf();
        doc = buf.str();
    }
    const std::size_t at = doc.find("canon");
    ASSERT_NE(at, std::string::npos);
    doc[at] ^= 0x01;
    {
        std::ofstream f(config.path, std::ios::binary);
        f << doc;
    }

    ResultCache b(config);
    EXPECT_EQ(b.load(), CacheLoadOutcome::Quarantined);
    EXPECT_EQ(b.size(), 0u);
    // The damaged file moved aside for post-mortem...
    std::ifstream corrupt(config.path + ".corrupt");
    EXPECT_TRUE(corrupt.good());
    std::ifstream original(config.path);
    EXPECT_FALSE(original.good());
    // ...and the cache keeps working: insert, persist, reload.
    b.insert(9, "canon-9", resultOf(9.0));
    b.persist();
    ResultCache c(config);
    EXPECT_EQ(c.load(), CacheLoadOutcome::Loaded);
    EXPECT_EQ(c.size(), 1u);
    std::remove(config.path.c_str());
    std::remove((config.path + ".corrupt").c_str());
}

TEST(ServeCache, TruncatedSnapshotIsQuarantinedToo)
{
    CacheConfig config;
    config.path = tempPath("tts_serve_cache_trunc.ckpt");
    ResultCache a(config);
    a.insert(7, "canon-7", resultOf(7.0));
    a.persist();
    std::string doc;
    {
        std::ifstream f(config.path, std::ios::binary);
        std::ostringstream buf;
        buf << f.rdbuf();
        doc = buf.str();
    }
    {
        std::ofstream f(config.path, std::ios::binary);
        f << doc.substr(0, doc.size() / 2);
    }
    ResultCache b(config);
    EXPECT_EQ(b.load(), CacheLoadOutcome::Quarantined);
    std::remove(config.path.c_str());
    std::remove((config.path + ".corrupt").c_str());
}

TEST(ServeCache, MissingPathIsFreshAndPersistIsANoOpWithoutAPath)
{
    ResultCache transient(CacheConfig{});
    EXPECT_EQ(transient.load(), CacheLoadOutcome::Fresh);
    transient.insert(1, "a", resultOf(1.0));
    transient.persist(); // no path: must not throw or write
    EXPECT_EQ(transient.counters().persists, 0u);

    CacheConfig config;
    config.path = tempPath("tts_serve_cache_missing.ckpt");
    ResultCache fresh(config);
    EXPECT_EQ(fresh.load(), CacheLoadOutcome::Fresh);
}

TEST(ServeCache, RejectsZeroCapacity)
{
    CacheConfig config;
    config.capacity = 0;
    EXPECT_THROW(ResultCache cache(config), FatalError);
}

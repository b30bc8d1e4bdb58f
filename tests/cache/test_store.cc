/**
 * @file
 * Unified-store tests: the store composes with the shared
 * fingerprint so callers can key on fnv1a(canonical) without any
 * serve headers.
 */

#include <gtest/gtest.h>

#include <string>

#include "cache/fingerprint.hh"
#include "cache/result_cache.hh"

using namespace tts;

TEST(CacheStore, KeysOnTheSharedFingerprintWithoutServeHeaders)
{
    cache::ResultCache store(cache::CacheConfig{});
    const std::string canonical = "opt-candidate 3 1 7\n";
    const std::uint64_t fp = cache::fnv1a(canonical);
    cache::Result value;
    value["opt.best_objective"] = 0.125;

    cache::Result out;
    EXPECT_FALSE(store.find(fp, canonical, &out));
    store.insert(fp, canonical, value);
    ASSERT_TRUE(store.find(fp, canonical, &out));
    EXPECT_EQ(out, value);
}

TEST(CacheStore, CollisionGuardComparesTheFullCanonicalText)
{
    cache::ResultCache store(cache::CacheConfig{});
    const std::string real = "tts-serve-request v1\nstudy cooling\n";
    cache::Result value;
    value["cooling.peak_kw"] = 42.0;
    store.insert(cache::fnv1a(real), real, value);

    // A forged lookup reusing the real fingerprint with different
    // text must miss and count a collision, never serve the value.
    cache::Result out;
    EXPECT_FALSE(
        store.find(cache::fnv1a(real), real + "forged tail\n", &out));
    EXPECT_EQ(store.counters().collisions, 1u);
    EXPECT_TRUE(store.find(cache::fnv1a(real), real, &out));
}

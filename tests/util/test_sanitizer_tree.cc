/**
 * @file
 * The ASan+UBSan tree must fail a test on the faults it is built to
 * catch, not only print them.  Two kinds escape a plain
 * -fsanitize=address,undefined build: UBSan recovers by default, so a
 * signed overflow prints a runtime error and the test still passes;
 * and a std::vector index past size() but inside capacity() lies in
 * memory ASan sees as allocated.  TTS_SANITIZE=address therefore adds
 * -fno-sanitize-recover=undefined and -D_GLIBCXX_ASSERTIONS, and each
 * test below dies only under those flags.
 *
 * Compiled only in the sanitizer tree: a Release build has neither
 * check, and the UBSan test would execute undefined behavior.
 */

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace tts {
namespace {

#if defined(__SANITIZE_ADDRESS__)

TEST(SanitizerTree, InCapacityIndexAbortsTheTest)
{
    std::vector<int> v;
    v.reserve(8);
    v.push_back(1);
    EXPECT_DEATH(
        {
            volatile int x = v[4];
            (void)x;
        },
        "__n < this->size\\(\\)");
}

TEST(SanitizerTree, SignedOverflowAbortsTheTest)
{
    volatile int big = std::numeric_limits<int>::max();
    EXPECT_DEATH(
        {
            volatile int y = big + 1;
            (void)y;
        },
        "signed integer overflow");
}

#endif

} // namespace
} // namespace tts

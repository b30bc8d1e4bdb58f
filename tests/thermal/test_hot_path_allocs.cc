/**
 * @file
 * Allocation gate for the thermal hot path: once a server is warm, a
 * fleet row's control step (setLoad, the three read-outs, then
 * advance(60, 15)) makes no heap allocation, and neither does a warm
 * 8-lane advanceLanes call.
 *
 * The global operator new/delete are replaced with counting versions,
 * so this file is its own test executable.  libstdc++'s array and
 * nothrow forms forward to the replaced scalar ones.  Keep it out of
 * sanitizer builds: their runtimes interpose the allocator.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/run_config.hh"
#include "core/thermal_time_shifting.hh"
#include "server/server_model.hh"
#include "thermal/network.hh"

namespace {

std::atomic<std::uint64_t> g_news{0};

} // namespace

void *
operator new(std::size_t n)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace tts {
namespace {

/** One fleet control step of a row, as FleetSim takes it. */
double
controlStep(server::ServerModel &m, int k)
{
    m.setLoad(0.5 + 0.45 * std::sin(0.3 * k));
    double sink = m.coolingLoad() + m.wallPower() + m.waxMeltFraction();
    m.advance(60.0, 15.0);
    return sink;
}

TEST(HotPathAllocs, WarmControlStepAllocatesNothing)
{
    const char *const tags[] = {"1u", "2u", "ocp"};
    const std::vector<server::ServerSpec> specs = core::paperPlatforms();
    const server::WaxConfig wax = core::RunConfig{}.waxConfig();
    ASSERT_EQ(specs.size(), 3u);
    for (std::size_t a = 0; a < specs.size(); ++a) {
        server::ServerModel m(specs[a], wax);
        double sink = 0.0;
        // Warm: every scratch vector reaches its working size.
        for (int k = 0; k < 10; ++k)
            sink += controlStep(m, k);
        const std::uint64_t before = g_news.load();
        for (int k = 10; k < 110; ++k)
            sink += controlStep(m, k);
        const std::uint64_t allocs = g_news.load() - before;
        EXPECT_TRUE(std::isfinite(sink)) << tags[a];
        EXPECT_EQ(allocs, 0u)
            << tags[a] << ": 100 control steps allocated " << allocs
            << " times";
    }
}

TEST(HotPathAllocs, WarmLaneCallAllocatesNothing)
{
    const char *const tags[] = {"1u", "2u", "ocp"};
    const std::vector<server::ServerSpec> specs = core::paperPlatforms();
    const server::WaxConfig wax = core::RunConfig{}.waxConfig();
    constexpr std::size_t lanes = thermal::ServerThermalNetwork::kLanes;
    for (std::size_t a = 0; a < specs.size(); ++a) {
        std::vector<std::unique_ptr<server::ServerModel>> rows;
        std::vector<thermal::ServerThermalNetwork *> nets;
        for (std::size_t i = 0; i < lanes; ++i) {
            rows.push_back(
                std::make_unique<server::ServerModel>(specs[a], wax));
            nets.push_back(&rows.back()->network());
        }
        double sink = 0.0;
        auto step = [&](int k) {
            for (std::size_t i = 0; i < lanes; ++i) {
                server::ServerModel &m = *rows[i];
                m.setLoad(0.5 + 0.45 * std::sin(0.3 * k + 0.1 * i));
                sink += m.coolingLoad() + m.wallPower() +
                    m.waxMeltFraction();
            }
            thermal::ServerThermalNetwork::advanceLanes(nets, 60.0, 15.0);
        };
        for (int k = 0; k < 10; ++k)
            step(k);
        const std::uint64_t before = g_news.load();
        for (int k = 10; k < 110; ++k)
            step(k);
        const std::uint64_t allocs = g_news.load() - before;
        EXPECT_TRUE(std::isfinite(sink)) << tags[a];
        EXPECT_EQ(allocs, 0u)
            << tags[a] << ": 100 lane calls allocated " << allocs
            << " times";
    }
}

TEST(HotPathAllocs, CounterSeesAnAllocation)
{
    // The gate above is only as good as the counter.  An explicit
    // operator new call cannot be elided, unlike a new-expression.
    const std::uint64_t before = g_news.load();
    ::operator delete(::operator new(64));
    EXPECT_EQ(g_news.load() - before, 1u);
}

} // namespace
} // namespace tts

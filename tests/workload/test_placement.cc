/**
 * @file
 * Placement-policy tests: weight conservation, skew directions, and
 * degenerate collapse to uniform.
 */

#include <gtest/gtest.h>
#include <numeric>

#include "util/error.hh"
#include "workload/placement.hh"

namespace tts {
namespace workload {
namespace {

std::vector<ArchetypeLoadTraits>
mixedTraits()
{
    // Shaped like the paper fleet: 1U (small wax), 2U (big wax),
    // OCP (medium wax), with distinct power slopes.
    return {
        {100, 0.24e6, 90.0, 185.0},
        {100, 0.80e6, 150.0, 320.0},
        {100, 0.30e6, 80.0, 160.0},
    };
}

double
weightedLoad(const std::vector<ArchetypeLoadTraits> &traits,
             const std::vector<double> &w)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < traits.size(); ++i)
        sum += static_cast<double>(traits[i].count) * w[i];
    return sum;
}

TEST(Placement, WeightsConserveTotalLoad)
{
    auto traits = mixedTraits();
    double population = 300.0;
    for (PlacementPolicy p : allPlacementPolicies()) {
        auto w = placementWeights(p, traits);
        ASSERT_EQ(w.size(), traits.size());
        EXPECT_NEAR(weightedLoad(traits, w), population, 1e-9)
            << placementPolicyName(p);
        for (double x : w) {
            EXPECT_GT(x, 0.0);
        }
    }
}

TEST(Placement, UniformIsExactlyUniform)
{
    auto w = placementWeights(PlacementPolicy::Uniform, mixedTraits());
    for (double x : w)
        EXPECT_DOUBLE_EQ(x, 1.0);
}

TEST(Placement, WaxAwareSkewsTowardLatentCapacity)
{
    auto traits = mixedTraits();
    auto w = placementWeights(PlacementPolicy::WaxAware, traits);
    // The 2U archetype has the most wax per server: it must carry
    // the highest weight; the 1U the least.
    EXPECT_GT(w[1], w[0]);
    EXPECT_GT(w[1], w[2]);
    EXPECT_GT(w[2], w[0]);
}

TEST(Placement, EfficiencyFirstSkewsTowardFlatSlope)
{
    auto traits = mixedTraits();
    // Power slopes (peak - idle): 95, 170, 80 W per unit load; the
    // OCP archetype is cheapest to load up.
    auto w =
        placementWeights(PlacementPolicy::EfficiencyFirst, traits);
    EXPECT_GT(w[2], w[0]);
    EXPECT_GT(w[0], w[1]);
}

TEST(Placement, FlatTraitsCollapseToUniform)
{
    std::vector<ArchetypeLoadTraits> flat(
        3, ArchetypeLoadTraits{50, 0.5e6, 100.0, 200.0});
    for (PlacementPolicy p : allPlacementPolicies()) {
        auto w = placementWeights(p, flat);
        for (double x : w)
            EXPECT_DOUBLE_EQ(x, 1.0) << placementPolicyName(p);
    }
    // Waxless fleet: latent capacity all zero, WaxAware must not
    // divide by it.
    std::vector<ArchetypeLoadTraits> waxless = mixedTraits();
    for (auto &t : waxless)
        t.latentCapacityJ = 0.0;
    auto w = placementWeights(PlacementPolicy::WaxAware, waxless);
    for (double x : w)
        EXPECT_DOUBLE_EQ(x, 1.0);
}

TEST(Placement, NamesRoundTripAndReject)
{
    for (PlacementPolicy p : allPlacementPolicies())
        EXPECT_EQ(placementPolicyFromName(placementPolicyName(p)), p);
    EXPECT_THROW(placementPolicyFromName("bogus"), FatalError);
    EXPECT_THROW(placementWeights(PlacementPolicy::Uniform, {}),
                 FatalError);
}

} // namespace
} // namespace workload
} // namespace tts

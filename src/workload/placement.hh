/**
 * @file
 * Job-placement policies across platform archetypes.
 *
 * The paper's §6 sketches "intelligent, wax-aware scheduling": skew
 * load toward servers whose wax can absorb the peak.  This module is
 * that seam.  A PlacementPolicy maps per-archetype load traits
 * (population, latent capacity, power slope) to deterministic
 * per-archetype utilization weights that conserve total fleet load:
 * sum over archetypes of count_a * w_a == sum of count_a, so a
 * fleet-level utilization u becomes u * w_a on archetype a without
 * changing the total offered work.  FleetSim applies the weights
 * when it sets each model's load; tts::opt searches over the policy
 * as one dimension of its configuration space.
 */

#ifndef TTS_WORKLOAD_PLACEMENT_HH
#define TTS_WORKLOAD_PLACEMENT_HH

#include <cstddef>
#include <string>
#include <vector>

namespace tts {
namespace workload {

/** How fleet load spreads across platform archetypes. */
enum class PlacementPolicy
{
    /** Every archetype sees the fleet utilization (the paper). */
    Uniform,
    /** Skew load toward archetypes with more latent capacity per
     *  server, so the wax absorbs more of the peak. */
    WaxAware,
    /** Skew load toward archetypes with the flattest power slope
     *  (W per unit utilization), minimizing marginal heat. */
    EfficiencyFirst,
};

/** @return Stable CLI/report name ("uniform", "wax-aware", ...). */
const char *placementPolicyName(PlacementPolicy p);

/**
 * @return The policy named by @p name (see placementPolicyName).
 * @throws FatalError on an unknown name.
 */
PlacementPolicy placementPolicyFromName(const std::string &name);

/** @return Every policy, in canonical (enum) order. */
std::vector<PlacementPolicy> allPlacementPolicies();

/** Per-archetype inputs a policy weighs. */
struct ArchetypeLoadTraits
{
    /** Servers of this archetype. */
    std::size_t count = 0;
    /** Wax latent capacity per server (J); 0 without wax. */
    double latentCapacityJ = 0.0;
    /** Idle wall power per server (W). */
    double idleWallW = 0.0;
    /** Peak wall power per server (W). */
    double peakWallW = 0.0;
};

/**
 * Compute per-archetype utilization weights for a policy.
 *
 * Deterministic in the traits alone (no RNG), and load-conserving:
 * sum(count_a * w_a) == sum(count_a) to within rounding.  Weights
 * are clamped to [0.25, 4.0] before normalization so no archetype is
 * starved or driven past saturation by a degenerate trait set; when
 * the policy's discriminating trait is flat (all-equal latent
 * capacity, say) the result collapses to the uniform weights.
 *
 * @throws FatalError when traits is empty or every count is zero.
 */
std::vector<double> placementWeights(
    PlacementPolicy policy,
    const std::vector<ArchetypeLoadTraits> &traits);

} // namespace workload
} // namespace tts

#endif // TTS_WORKLOAD_PLACEMENT_HH

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
 *
 * WeightedRoundRobinBalancer is the per-job face of the same idea
 * for DCSim-style dispatch: a smooth weighted round-robin whose
 * long-run pick frequencies match the weights exactly, with the
 * save/restore contract of the other balancers.
 */

#ifndef TTS_WORKLOAD_PLACEMENT_HH
#define TTS_WORKLOAD_PLACEMENT_HH

#include <cstddef>
#include <string>
#include <vector>

#include "workload/load_balancer.hh"

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

/**
 * Expand per-archetype weights to per-server weights in global
 * server order (archetype-major), for per-job dispatch.
 */
std::vector<double> expandArchetypeWeights(
    const std::vector<ArchetypeLoadTraits> &traits,
    const std::vector<double> &weights);

/**
 * Smooth weighted round-robin dispatch: each pick adds every
 * server's weight to its credit and picks the highest-credit server
 * (first index on ties), subtracting the total weight from the
 * winner.  Long-run pick frequencies converge to the weights; the
 * spread between any server's ideal and actual share is bounded by
 * one pick (the classic smooth-WRR property).
 */
class WeightedRoundRobinBalancer : public LoadBalancer
{
  public:
    /** @param weights Positive per-server weights. */
    explicit WeightedRoundRobinBalancer(std::vector<double> weights);

    std::size_t pick(const std::vector<std::size_t> &depths) override;
    const char *name() const override
    {
        return "weighted-round-robin";
    }

    void saveState(std::vector<std::uint64_t> &out) const override;
    void restoreState(const std::vector<std::uint64_t> &in,
                      std::size_t &pos) override;

    /** @return The configured weights. */
    const std::vector<double> &weights() const { return weights_; }

  private:
    std::vector<double> weights_;
    std::vector<double> credit_;
    double total_ = 0.0;
};

} // namespace workload
} // namespace tts

#endif // TTS_WORKLOAD_PLACEMENT_HH

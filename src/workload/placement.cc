#include "workload/placement.hh"

#include <algorithm>

#include "util/error.hh"

namespace tts {
namespace workload {

namespace {

/** Clamp bounds keeping any archetype usable but not saturated. */
constexpr double kMinRawWeight = 0.25;
constexpr double kMaxRawWeight = 4.0;

/**
 * Normalize raw per-archetype preferences into load-conserving
 * weights: scale so sum(count_a * w_a) == sum(count_a).
 */
std::vector<double>
normalize(const std::vector<ArchetypeLoadTraits> &traits,
          std::vector<double> raw)
{
    double population = 0.0;
    double weighted = 0.0;
    for (std::size_t i = 0; i < traits.size(); ++i) {
        raw[i] = std::clamp(raw[i], kMinRawWeight, kMaxRawWeight);
        double count = static_cast<double>(traits[i].count);
        population += count;
        weighted += count * raw[i];
    }
    require(population > 0.0,
            "placementWeights: fleet population is zero");
    double scale = population / weighted;
    for (double &w : raw)
        w *= scale;
    return raw;
}

} // namespace

const char *
placementPolicyName(PlacementPolicy p)
{
    switch (p) {
      case PlacementPolicy::Uniform: return "uniform";
      case PlacementPolicy::WaxAware: return "wax-aware";
      case PlacementPolicy::EfficiencyFirst: return "efficiency-first";
    }
    return "unknown";
}

PlacementPolicy
placementPolicyFromName(const std::string &name)
{
    for (PlacementPolicy p : allPlacementPolicies())
        if (name == placementPolicyName(p))
            return p;
    fatal("unknown placement policy '" + name +
          "' (want uniform, wax-aware, or efficiency-first)");
}

std::vector<PlacementPolicy>
allPlacementPolicies()
{
    return {PlacementPolicy::Uniform, PlacementPolicy::WaxAware,
            PlacementPolicy::EfficiencyFirst};
}

std::vector<double>
placementWeights(PlacementPolicy policy,
                 const std::vector<ArchetypeLoadTraits> &traits)
{
    require(!traits.empty(), "placementWeights: no archetypes");
    std::vector<double> raw(traits.size(), 1.0);
    switch (policy) {
      case PlacementPolicy::Uniform:
        break;
      case PlacementPolicy::WaxAware: {
        // Preference proportional to latent capacity relative to the
        // population mean; all-zero (stock fleet) stays uniform.
        double population = 0.0;
        double latent_sum = 0.0;
        double latent_max = 0.0;
        for (const auto &t : traits) {
            double count = static_cast<double>(t.count);
            population += count;
            latent_sum += count * t.latentCapacityJ;
            latent_max = std::max(latent_max, t.latentCapacityJ);
        }
        require(population > 0.0,
                "placementWeights: fleet population is zero");
        if (latent_max <= 0.0)
            break;
        double mean = latent_sum / population;
        for (std::size_t i = 0; i < traits.size(); ++i)
            raw[i] = 1.0 +
                0.5 * (traits[i].latentCapacityJ - mean) / latent_max;
        break;
      }
      case PlacementPolicy::EfficiencyFirst: {
        // Preference inversely proportional to the power slope
        // (marginal watts per unit utilization).
        double population = 0.0;
        double slope_sum = 0.0;
        bool degenerate = false;
        for (const auto &t : traits) {
            double slope = t.peakWallW - t.idleWallW;
            if (slope <= 0.0)
                degenerate = true;
            population += static_cast<double>(t.count);
            slope_sum +=
                static_cast<double>(t.count) * std::max(slope, 0.0);
        }
        require(population > 0.0,
                "placementWeights: fleet population is zero");
        if (degenerate || slope_sum <= 0.0)
            break;
        double mean_slope = slope_sum / population;
        for (std::size_t i = 0; i < traits.size(); ++i)
            raw[i] = mean_slope /
                (traits[i].peakWallW - traits[i].idleWallW);
        break;
      }
    }
    return normalize(traits, std::move(raw));
}

} // namespace workload
} // namespace tts

#include "core/energy_cost_study.hh"

#include "plant/study.hh"
#include "util/error.hh"

namespace tts {
namespace core {

EnergyCostResult
priceCoolingEnergy(const CoolingStudyResult &study,
                   const EnergyCostOptions &options)
{
    require(options.clusters >= 1,
            "priceCoolingEnergy: need at least one cluster");
    const double scale = static_cast<double>(options.clusters);

    plant::PlantConfig config;
    config.tuning = options.tuning;
    config.ambient = options.ambient;
    config.recordSeries = false;
    auto yearly = [&](plant::BackendKind kind,
                      const TimeSeries &cluster_load) {
        plant::PlantScenario scenario;
        scenario.loadW = cluster_load.scaled(scale);
        config.options.kind = kind;
        return plant::runPlant(scenario, config).yearlyNetCostUsd;
    };

    const auto &base = study.baseline.coolingLoadW;
    const auto &wax = study.withWax.coolingLoadW;
    EnergyCostResult out;
    out.flatCostNoWax = yearly(plant::BackendKind::Crac, base);
    out.flatCostWithWax = yearly(plant::BackendKind::Crac, wax);
    out.economizerCostNoWax =
        yearly(plant::BackendKind::Economizer, base);
    out.economizerCostWithWax =
        yearly(plant::BackendKind::Economizer, wax);
    return out;
}

} // namespace core
} // namespace tts

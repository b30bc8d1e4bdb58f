/**
 * @file
 * Cooling energy-cost study: what thermal time shifting is worth in
 * OpEx, not just in plant capital.
 *
 * Figure 1 of the paper lists two "additional advantages" of pushing
 * the thermal load off-peak that Section 5 never prices out:
 * electricity is cheaper at night ($0.13 vs. $0.08 per kWh in the
 * paper's own TCO assumptions), and night air is colder, so an
 * economizer removes each joule more cheaply.  This study runs the
 * Section 5.1 cooling loads, scaled to the whole facility, through
 * plant::runPlant under the CRAC and economizer backends - the one
 * place cooling is priced - and reports the yearly OpEx delta.
 */

#ifndef TTS_CORE_ENERGY_COST_STUDY_HH
#define TTS_CORE_ENERGY_COST_STUDY_HH

#include "core/cooling_study.hh"
#include "datacenter/free_cooling.hh"
#include "plant/backend.hh"

namespace tts {
namespace core {

/** Options for the energy-cost study. */
struct EnergyCostOptions
{
    /** Plant knobs: tariff, CRAC COP, economizer model. */
    plant::PlantTuning tuning;
    /** Diurnal ambient for the economizer scenario. */
    datacenter::AmbientModel ambient;
    /** Facility scale: clusters of 1008 made whole-facility. */
    std::size_t clusters = 50;
};

/** Energy costs for one platform (USD per year, whole facility). */
struct EnergyCostResult
{
    /** CRAC plant, tariff priced: no wax. */
    double flatCostNoWax = 0.0;
    /** CRAC plant, tariff priced: with wax. */
    double flatCostWithWax = 0.0;
    /** Economizer plant, tariff priced: no wax. */
    double economizerCostNoWax = 0.0;
    /** Economizer plant, tariff priced: with wax. */
    double economizerCostWithWax = 0.0;

    /** @return Yearly OpEx saving with a flat-COP plant (USD). */
    double flatSaving() const
    {
        return flatCostNoWax - flatCostWithWax;
    }
    /** @return Yearly OpEx saving with the economizer (USD). */
    double economizerSaving() const
    {
        return economizerCostNoWax - economizerCostWithWax;
    }
};

/**
 * Price the cooling energy of an already-run cooling study.
 *
 * @param study   Section 5.1 result (baseline + wax cluster loads).
 * @param options Plant tuning, ambient, and facility scale.
 */
EnergyCostResult priceCoolingEnergy(
    const CoolingStudyResult &study,
    const EnergyCostOptions &options = EnergyCostOptions{});

} // namespace core
} // namespace tts

#endif // TTS_CORE_ENERGY_COST_STUDY_HH

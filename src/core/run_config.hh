/**
 * @file
 * Unified run configuration shared by every study.
 *
 * Four subsystem PRs accreted near-identical per-study option
 * structs (server count, melting temperature, utilization duplicated
 * in each).  RunConfig is the single home for those shared model
 * inputs; the per-study config structs embed one and keep only the
 * fields that are genuinely their own (room model, governor cadence,
 * fault cluster sample, ...).
 *
 * RunConfig holds model inputs only - the values a study's result
 * depends on.  Where a run writes its metrics and trace, how it
 * checkpoints and which cooling plant prices it belong to the caller
 * (tts_sim builds them from its flags; the opt engine carries its
 * plant choice in opt::OptOptions::plant), so a study embedded in a
 * served request or a search has no file to write.
 *
 * @code
 *   core::CoolingConfig cfg;
 *   cfg.run.meltTempC = 45.0;
 *   auto r = core::runCoolingStudy(server::rd330Spec(), trace, cfg);
 * @endcode
 */

#ifndef TTS_CORE_RUN_CONFIG_HH
#define TTS_CORE_RUN_CONFIG_HH

#include <cstddef>

#include "server/server_model.hh"
#include "server/server_spec.hh"

namespace tts {
namespace core {

/** The shared model inputs.  Per-study configs embed one as `run`. */
struct RunConfig
{
    /** Cluster / room population. */
    std::size_t serverCount = 1008;
    /** Utilization where the study holds one (outage ride-through). */
    double utilization = 0.75;
    /** Melting temperature (C); <= 0 uses the platform default. */
    double meltTempC = 0.0;
    /** Melt window width (C); see server::WaxConfig::meltWindowC. */
    double meltWindowC = 0.5;
    /** Wax charge per server (liters); <= 0 uses the platform
     *  default deployment (the paper's liters). */
    double waxLiters = 0.0;

    /** @return meltTempC resolved against the platform default. */
    double meltTempFor(const server::ServerSpec &spec) const
    {
        return meltTempC > 0.0 ? meltTempC : spec.defaultMeltTempC;
    }

    /**
     * @return The paper's wax deployment at this config's melting
     * point and window.  When meltTempC <= 0 the melting point is
     * left at the WaxConfig default (resolved to the platform
     * default by ServerModel).
     */
    server::WaxConfig waxConfig() const;
};

} // namespace core
} // namespace tts

#endif // TTS_CORE_RUN_CONFIG_HH

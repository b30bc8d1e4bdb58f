/**
 * @file
 * Light cooling-plant backend selection (tts::plant).
 *
 * The piece of tts::plant that other configurations carry -
 * plant::PlantConfig::options and opt::OptOptions::plant - so it
 * stays dependency-free: a backend kind, the weather-trace path the
 * economizer/MPC backends consume, and the name round-trip used by
 * the CLI and the serve protocol.  The heavyweight knobs (loop
 * effectiveness, controller horizon, ...) live in
 * plant::PlantTuning (backend.hh).
 */

#ifndef TTS_PLANT_OPTIONS_HH
#define TTS_PLANT_OPTIONS_HH

#include <string>

namespace tts {
namespace plant {

/** The pluggable cooling-plant backends. */
enum class BackendKind
{
    Crac,       //!< Paper's CRAC plant (datacenter::CoolingSystem).
    HotWater,   //!< Hot-water loop with energy reuse (iDataCool).
    Economizer, //!< Free-air economizer under a weather trace.
    Mpc,        //!< Receding-horizon melt/fan/DVFS controller.
};

/** Number of distinct backend kinds. */
constexpr std::size_t backendKindCount = 4;

/** @return Stable text name ("crac", "hot_water", ...). */
const char *toString(BackendKind kind);

/** @return Kind parsed from its toString() name. @throws FatalError */
BackendKind backendKindFromString(const std::string &name);

/**
 * Backend selection.  The default (CRAC, no weather trace)
 * reproduces every pre-plant study bit-for-bit.
 */
struct PlantOptions
{
    /** Which plant backend removes the cluster's heat. */
    BackendKind kind = BackendKind::Crac;
    /**
     * Weather-trace CSV (t_hours,ambient_c) for the economizer and
     * MPC backends; empty falls back to the sinusoidal
     * datacenter::AmbientModel.
     */
    std::string weatherPath;
};

} // namespace plant
} // namespace tts

#endif // TTS_PLANT_OPTIONS_HH

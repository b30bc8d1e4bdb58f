/**
 * @file
 * Outside-air (free) cooling and the diurnal ambient model.
 *
 * Figure 1 of the paper lists "nighttime: lower ambient temperature,
 * more natural cooling opportunities" as an additional advantage of
 * shifting the thermal load off-peak, and the introduction points at
 * free cooling in cool regions [3, 7, 8, 17, 37].  This module makes
 * that quantitative: a sinusoidal diurnal ambient temperature and an
 * economizer whose coefficient of performance improves as the
 * outside air gets colder than the return air, with a full-economizer
 * mode below a changeover temperature.
 */

#ifndef TTS_DATACENTER_FREE_COOLING_HH
#define TTS_DATACENTER_FREE_COOLING_HH

namespace tts {
namespace datacenter {

/** Sinusoidal diurnal ambient temperature. */
struct AmbientModel
{
    /** Daily mean outdoor temperature (C). */
    double meanC = 18.0;
    /** Half of the daily swing (C). */
    double amplitudeC = 7.0;
    /** Local hour of the daily maximum [0, 24). */
    double peakHour = 15.0;

    /** @return Ambient temperature at time t (s since midnight). */
    double at(double t_s) const;

    /** @return Coolest hour of the day [0, 24). */
    double troughHour() const;
};

/**
 * A cooling plant with an airside economizer.
 *
 * Efficiency model:
 *  - Mechanical (chiller) mode: constant COP `mechanicalCop`.
 *  - Economizer assist: for every degree the ambient falls below the
 *    return-air setpoint, the effective COP rises by `copPerDegree`
 *    (cool outside air does part of the chiller's work).
 *  - Full free cooling: below `freeCoolingBelowC` the chillers are
 *    off and only fans run, giving `freeCop`.
 */
class EconomizerCoolingModel
{
  public:
    /** Mechanical COP with no economizer assist. */
    double mechanicalCop = 3.5;
    /** Return-air (hot aisle) reference temperature (C). */
    double returnAirC = 35.0;
    /** COP gained per degree of ambient below the return air. */
    double copPerDegree = 0.25;
    /** Ambient below which the plant runs on fans alone (C). */
    double freeCoolingBelowC = 10.0;
    /** Effective COP in full free-cooling mode. */
    double freeCop = 20.0;

    /**
     * @return Effective COP at the given ambient temperature,
     * always > 0: ambient at or above the return air clamps to
     * plain mechanical COP (no negative assist).
     *
     * @throws FatalError on a non-finite ambient or a degenerate
     * model (non-positive mechanicalCop/freeCop, negative
     * copPerDegree, non-finite temperatures).
     */
    double copAt(double ambient_c) const;

    /**
     * @return Electric power to remove load_w at ambient_c (W).
     * @throws FatalError on a negative or non-finite load (and the
     * copAt() diagnostics).
     */
    double electricPower(double load_w, double ambient_c) const;
};

} // namespace datacenter
} // namespace tts

#endif // TTS_DATACENTER_FREE_COOLING_HH

/**
 * @file
 * Enthalpy-temperature model of a phase change material charge.
 *
 * The thermal solver integrates stored enthalpy, not temperature, so
 * the latent-heat plateau is handled without special-casing: the
 * enthalpy curve H(T) has a steep (but finite) segment across the melt
 * window and the solver inverts it to recover temperature.  This is
 * the standard "effective heat capacity" method for PCM simulation.
 */

#ifndef TTS_PCM_ENTHALPY_MODEL_HH
#define TTS_PCM_ENTHALPY_MODEL_HH

#include "util/interpolation.hh"

namespace tts {
namespace pcm {

/** Parameters defining an enthalpy curve for a mass of PCM. */
struct EnthalpyParams
{
    /** PCM mass (kg). */
    double massKg;
    /** Specific heat of the solid phase (J/(kg K)). */
    double cpSolid;
    /** Specific heat of the liquid phase (J/(kg K)). */
    double cpLiquid;
    /** Latent heat of fusion (J/kg). */
    double latentHeat;
    /** Nominal melting temperature, center of the window (C). */
    double meltTempC;
    /**
     * Width of the melt window (C).  Commercial paraffin blends melt
     * over a few degrees; pure n-paraffins over a fraction of a
     * degree.  Must be > 0 (the curve must stay invertible).
     */
    double meltWindowC = 2.0;
    /** Extra lumped sensible capacity, e.g. the container (J/K). */
    double extraCapacity = 0.0;
};

/**
 * Piecewise-linear enthalpy-temperature relation for a PCM charge.
 *
 * Enthalpy is measured relative to the solid phase at 0 C.  The curve
 * is strictly increasing, so temperature(h) is well defined.
 */
class EnthalpyCurve
{
  public:
    /**
     * Build the curve.
     *
     * @param params Material and charge parameters; mass, cps, latent
     *               heat and window must be positive.
     */
    explicit EnthalpyCurve(const EnthalpyParams &params);

    /** @return Stored enthalpy at temperature t_c (J). */
    double enthalpyAt(double t_c) const;

    /** @return Temperature for stored enthalpy h (C). */
    double temperatureAt(double h) const;

    /**
     * @return Melted mass fraction in [0, 1] for stored enthalpy h.
     */
    double meltFraction(double h) const;

    /** @return Total latent capacity of the charge (J). */
    double latentCapacity() const;

    /** @return Enthalpy at the solidus (melt onset) point (J). */
    double solidusEnthalpy() const { return h_solidus_; }
    /** @return Enthalpy at the liquidus (fully melted) point (J). */
    double liquidusEnthalpy() const { return h_liquidus_; }

    /** @return Solidus temperature (C). */
    double solidusTempC() const;
    /** @return Liquidus temperature (C). */
    double liquidusTempC() const;

    /**
     * @return Effective heat capacity dH/dT at temperature t_c
     * (J/K); large across the melt window.
     */
    double effectiveHeatCapacity(double t_c) const;

    /** @return The parameters the curve was built from. */
    const EnthalpyParams &params() const { return params_; }

    /** @return The H(T) breakpoints temperatureAt() inverts. */
    const PiecewiseLinear &breakpoints() const { return curve_; }

  private:
    EnthalpyParams params_;
    PiecewiseLinear curve_;  //!< H as a function of T.
    double h_solidus_;
    double h_liquidus_;
};

} // namespace pcm
} // namespace tts

#endif // TTS_PCM_ENTHALPY_MODEL_HH

/**
 * @file
 * Datacenter cooling plant model.
 *
 * The cooling load of a datacenter is the heat that must be removed
 * to hold temperature constant (Patel et al.); the plant is
 * provisioned for the peak load.  We model a plant by its rated
 * capacity, its efficiency as a coefficient of performance (COP),
 * and the electricity tariff it pays (the paper uses $0.13/kWh peak,
 * $0.08/kWh off-peak).
 */

#ifndef TTS_DATACENTER_COOLING_SYSTEM_HH
#define TTS_DATACENTER_COOLING_SYSTEM_HH

#include "util/time_series.hh"

namespace tts {
namespace datacenter {

/** Time-of-use electricity tariff. */
struct ElectricityTariff
{
    /** Price during peak hours (USD/kWh). */
    double peakPricePerKWh = 0.13;
    /** Price off-peak (USD/kWh). */
    double offPeakPricePerKWh = 0.08;
    /** Peak window start, local hour [0, 24). */
    double peakStartHour = 7.0;
    /** Peak window end, local hour [0, 24). */
    double peakEndHour = 19.0;

    /** @return True if local time t (s since midnight) is on-peak. */
    bool isPeak(double t_s) const;

    /** @return Price at time t (USD/kWh). */
    double priceAt(double t_s) const;

    /**
     * @return Cost of the given electric power series (W over s) in
     * USD, integrating price * power.
     */
    double costOf(const TimeSeries &power_w) const;
};

/** A cooling plant. */
class CoolingSystem
{
  public:
    /**
     * @param capacity_w Rated heat-removal capacity (W).
     * @param cop        Coefficient of performance: watts of heat
     *                   removed per watt of electricity.
     */
    CoolingSystem(double capacity_w, double cop = 3.5);

    /** @return Rated capacity (W). */
    double capacity() const { return capacity_w_; }

    /** @return Coefficient of performance. */
    double cop() const { return cop_; }

    /** @return Utilization (load / capacity) for a heat load (W). */
    double utilization(double load_w) const;

    /** @return True if the load exceeds the rated capacity. */
    bool overloaded(double load_w) const;

    /** @return Electric power drawn to remove a heat load (W). */
    double electricPower(double load_w) const;

    /**
     * @return Electricity cost of removing the given heat-load
     * series (USD).
     */
    double energyCost(const TimeSeries &load_w,
                      const ElectricityTariff &tariff) const;

    /**
     * @return The electric power series corresponding to a heat-load
     * series (W).
     */
    TimeSeries electricSeries(const TimeSeries &load_w) const;

  private:
    double capacity_w_;
    double cop_;
};

} // namespace datacenter
} // namespace tts

#endif // TTS_DATACENTER_COOLING_SYSTEM_HH

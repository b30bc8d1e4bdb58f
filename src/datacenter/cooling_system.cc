#include "datacenter/cooling_system.hh"

#include <algorithm>
#include <cmath>

#include "util/error.hh"
#include "util/units.hh"

namespace tts {
namespace datacenter {

bool
ElectricityTariff::isPeak(double t_s) const
{
    double hour = std::fmod(t_s / 3600.0, 24.0);
    if (hour < 0.0)
        hour += 24.0;
    if (peakStartHour <= peakEndHour)
        return hour >= peakStartHour && hour < peakEndHour;
    return hour >= peakStartHour || hour < peakEndHour;
}

double
ElectricityTariff::priceAt(double t_s) const
{
    return isPeak(t_s) ? peakPricePerKWh : offPeakPricePerKWh;
}

double
ElectricityTariff::costOf(const TimeSeries &power_w) const
{
    require(power_w.size() >= 2, "ElectricityTariff: series too short");
    // Integrate price(t) * power(t).  Sparse series are refined to a
    // 5-minute grid so tariff boundaries inside long segments are
    // priced correctly.
    const auto &times = power_w.times();
    const auto &values = power_w.values();
    double cost = 0.0;
    for (std::size_t i = 1; i < times.size(); ++i) {
        double t0 = times[i - 1];
        double t1 = times[i];
        double seg = t1 - t0;
        int pieces = std::max(1, static_cast<int>(seg / 300.0));
        double dt = seg / pieces;
        for (int p = 0; p < pieces; ++p) {
            double a = t0 + p * dt;
            double b = a + dt;
            double frac_a = (a - t0) / seg;
            double frac_b = (b - t0) / seg;
            double w_a = values[i - 1] +
                frac_a * (values[i] - values[i - 1]);
            double w_b = values[i - 1] +
                frac_b * (values[i] - values[i - 1]);
            double kwh = units::toKWh(0.5 * (w_a + w_b) * dt);
            cost += kwh * priceAt(0.5 * (a + b));
        }
    }
    return cost;
}

CoolingSystem::CoolingSystem(double capacity_w, double cop)
    : capacity_w_(capacity_w), cop_(cop)
{
    require(capacity_w > 0.0, "CoolingSystem: capacity must be > 0");
    require(cop > 0.0, "CoolingSystem: COP must be > 0");
}

double
CoolingSystem::utilization(double load_w) const
{
    require(load_w >= 0.0, "CoolingSystem: load must be >= 0");
    return load_w / capacity_w_;
}

bool
CoolingSystem::overloaded(double load_w) const
{
    return load_w > capacity_w_;
}

double
CoolingSystem::electricPower(double load_w) const
{
    require(load_w >= 0.0, "CoolingSystem: load must be >= 0");
    return load_w / cop_;
}

double
CoolingSystem::energyCost(const TimeSeries &load_w,
                          const ElectricityTariff &tariff) const
{
    return tariff.costOf(electricSeries(load_w));
}

TimeSeries
CoolingSystem::electricSeries(const TimeSeries &load_w) const
{
    TimeSeries out("cooling_electric_w");
    for (std::size_t i = 0; i < load_w.size(); ++i) {
        out.append(load_w.times()[i],
                   electricPower(std::max(load_w.values()[i], 0.0)));
    }
    return out;
}

} // namespace datacenter
} // namespace tts

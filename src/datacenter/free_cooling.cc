#include "datacenter/free_cooling.hh"

#include <algorithm>
#include <cmath>

#include "util/error.hh"

namespace tts {
namespace datacenter {

double
AmbientModel::at(double t_s) const
{
    double hour = std::fmod(t_s / 3600.0, 24.0);
    if (hour < 0.0)
        hour += 24.0;
    double phase = 2.0 * M_PI * (hour - peakHour) / 24.0;
    return meanC + amplitudeC * std::cos(phase);
}

double
AmbientModel::troughHour() const
{
    double trough = peakHour + 12.0;
    return trough >= 24.0 ? trough - 24.0 : trough;
}

double
EconomizerCoolingModel::copAt(double ambient_c) const
{
    require(std::isfinite(ambient_c),
            "EconomizerCoolingModel: ambient must be finite");
    require(std::isfinite(mechanicalCop) && mechanicalCop > 0.0,
            "EconomizerCoolingModel: mechanicalCop must be > 0");
    require(std::isfinite(freeCop) && freeCop > 0.0,
            "EconomizerCoolingModel: freeCop must be > 0");
    require(std::isfinite(copPerDegree) && copPerDegree >= 0.0,
            "EconomizerCoolingModel: copPerDegree must be >= 0");
    require(std::isfinite(returnAirC) &&
            std::isfinite(freeCoolingBelowC),
            "EconomizerCoolingModel: temperatures must be finite");
    if (ambient_c <= freeCoolingBelowC)
        return freeCop;
    // Ambient at or above the return air gives no economizer
    // assist: the plant clamps to plain mechanical COP rather than
    // letting the assist term go negative.
    double assist = returnAirC - ambient_c;
    double cop = mechanicalCop +
        (assist > 0.0 ? copPerDegree * assist : 0.0);
    cop = std::min(cop, freeCop);
    invariant(cop > 0.0,
              "EconomizerCoolingModel: non-positive COP");
    return cop;
}

double
EconomizerCoolingModel::electricPower(double load_w,
                                      double ambient_c) const
{
    require(std::isfinite(load_w) && load_w >= 0.0,
            "EconomizerCoolingModel: load must be finite and >= 0");
    return load_w / copAt(ambient_c);
}

} // namespace datacenter
} // namespace tts

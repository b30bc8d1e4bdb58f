#include "core/run_config.hh"

namespace tts {
namespace core {

server::WaxConfig
RunConfig::waxConfig() const
{
    // custom() with non-positive liters/melt resolves both to the
    // platform defaults inside ServerModel, so this reproduces the
    // old withMeltTemp()/paper() pair while letting waxLiters scale
    // the charge.
    server::WaxConfig wax = server::WaxConfig::custom(
        waxLiters > 0.0 ? waxLiters : 0.0,
        meltTempC > 0.0 ? meltTempC : 0.0);
    wax.meltWindowC = meltWindowC;
    return wax;
}

} // namespace core
} // namespace tts

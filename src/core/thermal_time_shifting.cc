#include "core/thermal_time_shifting.hh"

#include "tco/model.hh"
#include "util/units.hh"

namespace tts {
namespace core {

const char *
version()
{
    return "1.0.0";
}

std::vector<server::ServerSpec>
paperPlatforms()
{
    return {server::rd330Spec(), server::x4470Spec(),
            server::openComputeSpec(server::OcpLayout::FutureSsd)};
}

PlatformStudy
runPlatformStudy(const server::ServerSpec &spec,
                 const workload::WorkloadTrace &trace,
                 const PlatformConfig &options)
{
    PlatformStudy out;
    out.spec = spec;

    if (options.optimizeMelt) {
        MeltOptimizerOptions mo;
        mo.stepC = options.meltStepC;
        mo.study = options.cooling;
        MeltOptimum opt = optimizeMeltingTemp(
            spec, trace, pcm::commercialParaffin(), mo);
        out.meltTempC = opt.meltTempC;
    } else {
        out.meltTempC = spec.defaultMeltTempC;
    }

    CoolingConfig cs = options.cooling;
    cs.run.meltTempC = out.meltTempC;
    out.cooling = runCoolingStudy(spec, trace, cs);
    out.plan = planCapacity(spec, out.cooling.peakReduction());

    // The constrained study picks its own melting point: a throttled
    // cluster runs cooler than the fully-subscribed one, so the
    // Section 5.1 optimum would never melt there.
    ThroughputConfig ts;
    ts.run.serverCount = cs.run.serverCount;
    ts.controlIntervalS = cs.cluster.controlIntervalS;
    ts.thermalStepS = cs.cluster.thermalStepS;
    ts.warmupDays = cs.cluster.warmupDays;
    ts.coolingCapacityFraction = options.capacityFraction > 0.0
        ? options.capacityFraction
        : calibratedCapacityFraction(spec);
    out.throughput = runThroughputStudy(spec, trace, ts);

    tco::TcoModel tco_model(tco::parametersFor(spec));
    out.tcoEfficiencyGain = tco_model.tcoEfficiencyGain(
        units::toKW(10.0e6),
        datacenter::Datacenter(spec).serverCount(),
        out.throughput.throughputGain());
    return out;
}

} // namespace core
} // namespace tts

#include "datacenter/cluster.hh"

#include <algorithm>
#include <cmath>

#include "util/error.hh"

namespace tts {
namespace datacenter {

Cluster::Cluster(const server::ServerSpec &spec,
                 const server::WaxConfig &wax,
                 std::size_t server_count)
    : server_count_(server_count), rep_(spec, wax)
{
    require(server_count >= 1, "Cluster: need at least one server");
}

double
Cluster::peakWallPower() const
{
    server::ServerModel probe(rep_.spec(), server::WaxConfig::none());
    probe.setLoad(1.0);
    return probe.wallPower() * static_cast<double>(server_count_);
}

ClusterRunResult
Cluster::run(const workload::WorkloadTrace &trace,
             const ClusterRunOptions &options)
{
    require(options.controlIntervalS > 0.0 &&
            options.thermalStepS > 0.0,
            "Cluster::run: bad step sizes");
    const double t0 = trace.startTime();
    const double t1 = trace.endTime();
    const double n = static_cast<double>(server_count_);

    // Warm-up: cycle the first 24 h so the wax starts each recorded
    // day from its periodic steady state, as a long-running
    // datacenter would.
    double warm_span = std::min(86400.0, t1 - t0);
    for (int d = 0; d < options.warmupDays; ++d) {
        for (double t = t0; t < t0 + warm_span;
             t += options.controlIntervalS) {
            double util = std::clamp(trace.totalAt(t), 0.0, 1.0);
            rep_.setLoad(util);
            double dt = std::min(options.controlIntervalS,
                                 t0 + warm_span - t);
            rep_.advance(dt, options.thermalStepS);
        }
    }

    ClusterRunResult out;
    out.coolingLoadW.setName("cooling_load_w");
    out.itPowerW.setName("it_power_w");
    out.throughput.setName("throughput");
    out.waxMeltFraction.setName("melt_fraction");
    out.waxStoredJ.setName("wax_stored_j");
    out.outletTempC.setName("outlet_c");
    out.waxBayTempC.setName("wax_bay_c");

    auto record = [&](double t) {
        out.coolingLoadW.append(t, n * rep_.coolingLoad());
        out.itPowerW.append(t, n * rep_.wallPower());
        out.throughput.append(t, rep_.throughput());
        out.waxMeltFraction.append(
            t, rep_.hasWax() ? rep_.waxMeltFraction() : 0.0);
        out.waxStoredJ.append(t, rep_.waxStoredEnergy());
        out.outletTempC.append(t, rep_.outletTemp());
        out.waxBayTempC.append(t, rep_.waxBayAirTemp());
    };

    for (double t = t0; t < t1; t += options.controlIntervalS) {
        double util = std::clamp(trace.totalAt(t), 0.0, 1.0);
        rep_.setLoad(util);
        record(t);
        double dt = std::min(options.controlIntervalS, t1 - t);
        rep_.advance(dt, options.thermalStepS);
    }
    // Final sample at the trace end.
    double util = std::clamp(trace.totalAt(t1), 0.0, 1.0);
    rep_.setLoad(util);
    record(t1);
    return out;
}

} // namespace datacenter
} // namespace tts

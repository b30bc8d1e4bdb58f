/**
 * @file
 * Cluster-scale thermal simulation (the paper's DCSim extension).
 *
 * A cluster is 1008 servers of one platform behind a round-robin
 * balancer, so all servers see the same utilization (the event
 * simulator in workload/dcsim verifies this uniformity).  The
 * cluster's thermal behavior is therefore N times one representative
 * server, which is exactly how the paper extends DCSim "to model
 * thermal time shifting with PCM using wax melting characteristics
 * derived from extensive Icepak simulations of each server".
 */

#ifndef TTS_DATACENTER_CLUSTER_HH
#define TTS_DATACENTER_CLUSTER_HH

#include "server/server_model.hh"
#include "util/time_series.hh"
#include "workload/trace.hh"

namespace tts {
namespace datacenter {

/** Options for a cluster transient run. */
struct ClusterRunOptions
{
    /** Control interval: load/power updates (s). */
    double controlIntervalS = 300.0;
    /** Inner thermal integration step (s). */
    double thermalStepS = 5.0;
    /**
     * Warm-up: repeat the first day until the wax state is periodic
     * before recording (0 disables).
     */
    int warmupDays = 1;
};

/** Time-series outputs of a cluster run. */
struct ClusterRunResult
{
    /** Heat rejected to the room, whole cluster (W). */
    TimeSeries coolingLoadW;
    /** Wall power, whole cluster (W). */
    TimeSeries itPowerW;
    /** Cluster throughput (normalized: 1.0 == all servers at 100 %
     *  utilization and nominal frequency). */
    TimeSeries throughput;
    /** Wax melt fraction of the representative server. */
    TimeSeries waxMeltFraction;
    /** Wax stored energy per server (J). */
    TimeSeries waxStoredJ;
    /** Representative server outlet temperature (C). */
    TimeSeries outletTempC;
    /** Representative wax-bay air temperature (C). */
    TimeSeries waxBayTempC;

    /** @return Peak of the cooling-load series (W). */
    double peakCoolingLoad() const { return coolingLoadW.max(); }
};

/** A homogeneous cluster of one server platform. */
class Cluster
{
  public:
    /** The paper's cluster size. */
    static constexpr std::size_t defaultServerCount = 1008;

    /**
     * @param spec         Server platform.
     * @param wax          Wax-bay contents for every server.
     * @param server_count Servers in the cluster.
     */
    Cluster(const server::ServerSpec &spec,
            const server::WaxConfig &wax,
            std::size_t server_count = defaultServerCount);

    /**
     * Run the cluster over a normalized load trace.
     *
     * Utilization at each control step is the trace total and the
     * servers run at nominal frequency; the representative server's
     * thermal state advances through the whole trace, and extensive
     * quantities scale by the server count.
     */
    ClusterRunResult run(const workload::WorkloadTrace &trace,
                         const ClusterRunOptions &options =
                             ClusterRunOptions{});

    /** @return Number of servers. */
    std::size_t serverCount() const { return server_count_; }

    /** @return Peak wall power of the whole cluster (W). */
    double peakWallPower() const;

    /** @return The representative server model. */
    server::ServerModel &representative() { return rep_; }

    /** @return The platform spec. */
    const server::ServerSpec &spec() const { return rep_.spec(); }

  private:
    std::size_t server_count_;
    server::ServerModel rep_;
};

} // namespace datacenter
} // namespace tts

#endif // TTS_DATACENTER_CLUSTER_HH

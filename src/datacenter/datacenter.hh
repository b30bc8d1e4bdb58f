/**
 * @file
 * Whole-datacenter topology: a 10 MW critical-power facility filled
 * with homogeneous clusters of one platform.
 *
 * The paper evaluates three such datacenters: 55 clusters of 1U
 * servers, 19 clusters of 2U servers, or 29 clusters of Open Compute
 * blades, each cluster being 1008 servers.  Cluster counts here are
 * derived from the critical power and the per-server provisioned
 * power, with an override to pin the paper's exact numbers.
 */

#ifndef TTS_DATACENTER_DATACENTER_HH
#define TTS_DATACENTER_DATACENTER_HH

#include <cstddef>

#include "datacenter/cluster.hh"
#include "datacenter/cooling_system.hh"
#include "server/server_spec.hh"

namespace tts {
namespace datacenter {

/** Datacenter-level configuration. */
struct DatacenterConfig
{
    /** Critical (IT) power (W); the paper's facilities are 10 MW. */
    double criticalPowerW = 10.0e6;
    /** Servers per cluster. */
    std::size_t serversPerCluster = Cluster::defaultServerCount;
    /**
     * Provisioned power per server (W) used for packing; <= 0 means
     * the platform's peak wall power.
     */
    double provisionedPerServerW = 0.0;
    /** Pin the cluster count (0 = derive from critical power). */
    std::size_t clusterCountOverride = 0;
};

/** A homogeneous datacenter. */
class Datacenter
{
  public:
    /**
     * @param spec   Server platform filling the facility.
     * @param config Facility parameters.
     */
    Datacenter(const server::ServerSpec &spec,
               const DatacenterConfig &config = DatacenterConfig{});

    /** @return Number of clusters. */
    std::size_t clusterCount() const { return cluster_count_; }

    /** @return Total server count. */
    std::size_t serverCount() const
    {
        return cluster_count_ * config_.serversPerCluster;
    }

    /** @return Provisioned power per server (W). */
    double provisionedPerServer() const { return per_server_w_; }

    /** @return The facility configuration. */
    const DatacenterConfig &config() const { return config_; }

    /** @return The platform spec. */
    const server::ServerSpec &spec() const { return spec_; }

    /**
     * Scale a single-cluster series (e.g. cooling load) to the whole
     * datacenter.
     */
    TimeSeries scaleToDatacenter(const TimeSeries &cluster_series)
        const;

    /**
     * @return How many additional servers fit if the per-server peak
     * cooling demand drops by the given fraction while the plant
     * capacity stays fixed (the paper's "install more servers"
     * scenario).
     */
    std::size_t extraServersForCoolingReduction(
        double peak_reduction_fraction) const;

  private:
    server::ServerSpec spec_;
    DatacenterConfig config_;
    double per_server_w_;
    std::size_t cluster_count_;
};

} // namespace datacenter
} // namespace tts

#endif // TTS_DATACENTER_DATACENTER_HH

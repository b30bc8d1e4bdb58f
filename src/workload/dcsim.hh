/**
 * @file
 * DCSim-style event-driven cluster simulator.
 *
 * Reimplements the published description of DCSim (Kontorinis et
 * al.): jobs arrive following the input load trace, round-robin
 * dispatch sends them to servers, each server runs jobs on a fixed
 * number of slots (logical threads) with FIFO queueing, and the
 * simulator records per-server utilization, latency, and cluster
 * throughput.
 * The cluster model is then extrapolated to the datacenter by the
 * higher layers, exactly as the paper does.
 *
 * Arrivals are a non-homogeneous Poisson process with rate
 *     lambda(t) = util(t) * servers * slots / mean_service_time,
 * which makes the offered load equal to the trace value.
 */

#ifndef TTS_WORKLOAD_DCSIM_HH
#define TTS_WORKLOAD_DCSIM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "util/random.hh"
#include "util/stats.hh"
#include "util/time_series.hh"
#include "workload/job.hh"
#include "workload/trace.hh"

namespace tts {

namespace fault {
class FaultSchedule;
} // namespace fault

namespace guard {
class CheckpointWriter;
class CheckpointReader;
} // namespace guard

namespace workload {

/** Cluster simulator configuration. */
struct DcSimConfig
{
    /** Number of simulated servers (a rack/cluster sample). */
    std::size_t serverCount = 48;
    /** Job slots per server (logical threads). */
    std::size_t slotsPerServer = 12;
    /** Mean job service time (s), exponential. */
    double meanServiceTimeS = 30.0;
    /** Per-server queue cap; jobs beyond it are dropped. */
    std::size_t queueCapPerServer = 256;
    /** Servers per rack (for rack-level metrics). */
    std::size_t serversPerRack = 24;
    /** Utilization sampling interval (s). */
    double statsIntervalS = 300.0;
    /** RNG seed. */
    std::uint64_t seed = 1;
};

/** Aggregated results of one simulation run. */
struct DcSimResult
{
    /** Cluster-mean slot utilization over time. */
    TimeSeries clusterUtilization;
    /** Completed jobs per second over time. */
    TimeSeries throughput;
    /** Time-mean busy-slot fraction per server. */
    std::vector<double> perServerUtilization;
    /** Time-mean busy-slot fraction per rack. */
    std::vector<double> perRackUtilization;
    /** Completed job count. */
    std::uint64_t completedJobs = 0;
    /** Dropped job count (queue overflow). */
    std::uint64_t droppedJobs = 0;
    /** Jobs offered to the cluster (accepted Poisson arrivals). */
    std::uint64_t offeredJobs = 0;
    /** Jobs still in the system (running or queued) at trace end. */
    std::uint64_t residualJobs = 0;
    /** Deepest per-server FIFO queue observed during the run. */
    std::size_t maxQueueDepth = 0;
    /**
     * Jobs destroyed by a server crash (they were running or queued
     * on the server when it died).  A subset of droppedJobs, so the
     * offered = completed + dropped + residual partition still
     * holds under faults.
     */
    std::uint64_t crashKilledJobs = 0;
    /** Arrivals rejected because no server was alive (subset of
     *  droppedJobs). */
    std::uint64_t rejectedNoAliveServer = 0;
    /** Completed jobs per server (fault studies assert a crashed
     *  server completes nothing while down). */
    std::vector<std::uint64_t> completedByServer;
    /** Fault events applied during the run. */
    std::uint64_t faultEventsApplied = 0;
    /** Sojourn time statistics (queue + service, s). */
    RunningStats latency;
    /** Completed jobs per class. */
    std::uint64_t completedByClass[jobClassCount] = {0, 0, 0};

    /**
     * @return Max over servers of |server util - mean| (the
     * round-robin uniformity metric the scale-out model relies on).
     */
    double utilizationSpread() const;

    /** @return The same uniformity metric at rack granularity. */
    double rackUtilizationSpread() const;
};

/**
 * Pausable core of the cluster simulator.
 *
 * Holds every piece of event-loop state (pending departures, queues,
 * fault cursor, RNG position, partial counters) as members, so a run
 * can stop at an arbitrary simulation time, be serialized to a guard
 * checkpoint, and resume - in the same process or a new one -
 * producing results bit-identical to an uninterrupted run.
 * ClusterSim::run() is a thin wrapper driving this engine to the end
 * of the trace.
 *
 * Dispatch is the paper's round-robin over the alive servers: the
 * k-th alive server in index order, k = cursor++ mod alive count.
 * With every server alive that is plain round-robin; a crash drops
 * the dead server from the rotation without resetting the cursor.
 *
 * The trace and fault schedule are configuration: the caller
 * reconstructs them and passes them again on resume; only the
 * evolving state (including the dispatch cursor) is checkpointed.
 */
class ClusterSimEngine
{
  public:
    /**
     * @param config   Simulator configuration.
     * @param trace    Load trace; must outlive the engine.
     * @param faults   Fault schedule, or nullptr.
     */
    ClusterSimEngine(const DcSimConfig &config,
                     const WorkloadTrace &trace,
                     const fault::FaultSchedule *faults);
    ~ClusterSimEngine();

    ClusterSimEngine(const ClusterSimEngine &) = delete;
    ClusterSimEngine &operator=(const ClusterSimEngine &) = delete;

    /**
     * Process every event with time <= min(t_stop, trace end).
     *
     * @return True once the trace end has been reached (no further
     *         events to process); false if paused at t_stop.
     */
    bool runUntil(double t_stop);

    /** @return True once the run has consumed the whole trace. */
    bool finished() const;

    /** @return Trace end time (s). */
    double traceEnd() const;

    /**
     * Final accounting (utilization integrals, residual jobs, rack
     * aggregation) and result extraction.  Call once, after the run
     * finished.
     */
    DcSimResult take();

    /** Serialize the full engine state (including the cursor). */
    void save(guard::CheckpointWriter &w) const;

    /**
     * Restore state saved by save().  The engine must have been
     * constructed with the same config, trace, and schedule.
     */
    void restore(guard::CheckpointReader &r);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** Event-driven cluster simulator. */
class ClusterSim
{
  public:
    /** @param config Simulator configuration. */
    explicit ClusterSim(const DcSimConfig &config);

    /**
     * Run the simulator over a load trace.
     *
     * @param trace Normalized multi-class load trace; arrival rate
     *              and class mix follow it.
     * @return Aggregated results.
     */
    DcSimResult run(const WorkloadTrace &trace);

    /**
     * Run the simulator over a load trace with fault injection.
     *
     * Fault events interleave with arrivals and departures at their
     * scheduled times:
     *
     *  - ServerCrash kills the target's running and queued jobs
     *    (counted in droppedJobs and crashKilledJobs) and removes it
     *    from the round-robin rotation, so subsequent arrivals go
     *    around it.  If every server is dead, arrivals are dropped
     *    (rejectedNoAliveServer).
     *  - ServerRecover returns the target, empty, to the pool.
     *  - TraceGapStart/End suppress arrivals while the input trace
     *    is dark (the gap's would-be jobs are never offered).
     *  - Thermal-side kinds (cooling, sensor, fan) are ignored here;
     *    core::runResilienceStudy applies them to the room model.
     *
     * Given the same seed and schedule the run is bit-identical on
     * every platform and at every thread count.
     *
     * @param trace  Normalized multi-class load trace.
     * @param faults Fault schedule, or nullptr for none.
     */
    DcSimResult run(const WorkloadTrace &trace,
                    const fault::FaultSchedule *faults);

    /** @return The configuration. */
    const DcSimConfig &config() const { return config_; }

  private:
    DcSimConfig config_;
};

} // namespace workload
} // namespace tts

#endif // TTS_WORKLOAD_DCSIM_HH

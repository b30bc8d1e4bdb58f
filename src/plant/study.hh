/**
 * @file
 * Cooling-plant study runner (tts::plant).
 *
 * runPlant() drives one CoolingBackend over a plant heat-load
 * series sample by sample: it replays the fault schedule through a
 * fault::FaultInjector (cooling trips, pump failures, exchanger
 * fouling, weather gaps), resolves the ambient through a
 * WeatherSource (measured trace or sinusoid, hold-last during
 * gaps), prices the resulting electric series on the time-of-use
 * tariff, credits reused heat, and penalizes DVFS-shed compute.
 * The loop is checkpointable through guard::runResumable, the loop
 * the fleet and resilience runners use (restore-if-exists, periodic
 * writes, stop-after pause), and a resumed run is bit-identical to
 * an uninterrupted one.
 *
 * compareBackends() runs several backends as arms of one scenario
 * through exec::ThreadPool with index-keyed result slots, so the
 * comparison is bit-identical at any thread count.
 */

#ifndef TTS_PLANT_STUDY_HH
#define TTS_PLANT_STUDY_HH

#include <string>
#include <vector>

#include "datacenter/cluster.hh"
#include "datacenter/free_cooling.hh"
#include "exec/parallel.hh"
#include "fault/fault_schedule.hh"
#include "guard/resume.hh"
#include "plant/backend.hh"
#include "plant/options.hh"
#include "util/time_series.hh"
#include "workload/trace.hh"

namespace tts {
namespace plant {

/** One plant scenario: the heat to remove and what goes wrong. */
struct PlantScenario
{
    /** Plant heat-load series (W); strictly increasing times. */
    TimeSeries loadW;
    /** Fault schedule replayed against the run. */
    fault::FaultSchedule faults;
    /** Servers addressable by per-server fault kinds. */
    std::size_t serverCount = 1;
    /** Span for yearly scaling (days); <= 0 derives from loadW. */
    double spanDays = 0.0;
};

/** Full study configuration. */
struct PlantConfig
{
    /** Backend selection (kind + weather trace path). */
    PlantOptions options;
    /** Backend numeric knobs (tariff included). */
    PlantTuning tuning;
    /** Sinusoidal ambient used when no weather trace is given. */
    datacenter::AmbientModel ambient;
    /** Inline weather CSV text (serve requests, tests); takes
     *  precedence over options.weatherPath. */
    std::string weatherText;
    /** Checkpoint policy. */
    guard::CheckpointPolicy checkpoint;
    /** Keep the electric series in the result. */
    bool recordSeries = true;
};

/** Outputs of one plant run. */
struct PlantResult
{
    /** Backend name ("crac", ...). */
    std::string backend;
    /** True when the run reached the end of the load series. */
    bool finished = false;
    /** Samples stepped (including any resumed prefix). */
    std::size_t steps = 0;
    /** Fault events applied. */
    std::size_t faultEventsApplied = 0;

    /** Plant electric energy (J). */
    double electricEnergyJ = 0.0;
    /** Peak plant electric power (W). */
    double peakElectricW = 0.0;
    /** Tariff-priced electricity cost over the span (USD). */
    double energyCostUsd = 0.0;
    /** Heat captured for reuse (J). */
    double reusedEnergyJ = 0.0;
    /** Reuse credit (USD). */
    double reuseCreditUsd = 0.0;
    /** Compute shed by DVFS caps (J of IT heat equivalent). */
    double shedComputeJ = 0.0;
    /** DVFS shed penalty (USD). */
    double dvfsPenaltyUsd = 0.0;
    /** energyCost + dvfsPenalty - reuseCredit (USD). */
    double netCostUsd = 0.0;
    /** netCostUsd scaled to a year. */
    double yearlyNetCostUsd = 0.0;
    /** Heat left unserved by a degraded plant (J). */
    double unservedJ = 0.0;
    /** Served IT work fraction (1 unless DVFS caps engaged). */
    double throughputRetention = 1.0;
    /** Cold-buffer energy discharged over the run (J; MPC). */
    double bufferDischargeJ = 0.0;

    /** Electric power series (empty unless recordSeries). */
    TimeSeries electricW;
};

/**
 * Run one backend over the scenario (see file comment).
 *
 * @throws FatalError on a malformed scenario (short or non-finite
 * load series), an unreadable weather trace, a corrupt checkpoint,
 * or a checkpoint path with checkpointEveryS <= 0.
 */
PlantResult runPlant(const PlantScenario &scenario,
                     const PlantConfig &config);

/** A multi-backend comparison over one scenario. */
struct PlantComparison
{
    /** One result per requested kind, in request order. */
    std::vector<PlantResult> arms;
    /**
     * (crac - mpc) / crac yearly net cost, when both arms ran;
     * positive means the controller beats the static plant.
     */
    double mpcVsCracSaving = 0.0;
};

/**
 * Run several backends as arms of one scenario, in parallel across
 * @p pool (nullptr: a default pool), bit-identical at any width.
 * Checkpointing is disabled inside the arms.
 */
PlantComparison compareBackends(const PlantScenario &scenario,
                                const PlantConfig &config,
                                const std::vector<BackendKind> &kinds,
                                exec::ThreadPool *pool = nullptr);

/**
 * Plant heat load of a homogeneous cluster run: a thin wrapper over
 * datacenter::Cluster, the bridge from the paper's studies into the
 * plant layer.
 */
TimeSeries clusterCoolingLoad(
    const server::ServerSpec &spec, const server::WaxConfig &wax,
    std::size_t server_count, const workload::WorkloadTrace &trace,
    const datacenter::ClusterRunOptions &options =
        datacenter::ClusterRunOptions{});

} // namespace plant
} // namespace tts

#endif // TTS_PLANT_STUDY_HH

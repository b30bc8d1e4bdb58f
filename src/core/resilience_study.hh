/**
 * @file
 * Fault-scenario resilience study: wax vs. no-wax ride-through and
 * throughput retention under composable failures.
 *
 * Extends the stylized total-plant-loss outage study (outage_study)
 * to the fault vocabulary of tts::fault: partial cooling trips,
 * server crashes, fan-bank failures, drifting or dead inlet sensors,
 * and input-trace gaps.  Two coupled simulations run per scenario:
 *
 *  - a thermal loop (room model + representative servers) driven by
 *    the plant/sensor/fan events, with graceful degradation: a DVFS
 *    governor emergency-throttles every server to the frequency
 *    floor when the *sensed* inlet - which may be drifting or stuck
 *    - crosses the throttle threshold, fan-failed servers pin to
 *    the floor permanently, and crashed servers stop heating;
 *  - a DCSim cluster sample driven by the crash/gap events, whose
 *    job accounting (completed / dropped / killed / residual)
 *    quantifies the workload cost of the same scenario.
 *
 * Everything is seeded and deterministic: identical scenarios give
 * bit-identical results at any thread count, so the canonical
 * scenario grid is pinned in the golden file alongside the paper's
 * headline numbers.
 */

#ifndef TTS_CORE_RESILIENCE_STUDY_HH
#define TTS_CORE_RESILIENCE_STUDY_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/run_config.hh"
#include "datacenter/room_model.hh"
#include "fault/fault_schedule.hh"
#include "guard/numerics.hh"
#include "server/server_spec.hh"
#include "util/time_series.hh"
#include "workload/dcsim.hh"

namespace tts {
namespace core {

/** One named fault scenario. */
struct ResilienceScenario
{
    /** Scenario name (golden key component; [a-z0-9_]). */
    std::string name;
    /** The fault schedule to inject. */
    fault::FaultSchedule faults;
    /** Cluster utilization held over the scenario. */
    double utilization = 0.75;
    /** Scenario horizon (s). */
    double horizonS = 2.0 * 3600.0;
};

/** Study configuration shared by every scenario. */
struct ResilienceConfig
{
    /** Shared run knobs (serverCount, meltTempC, checkpoint). */
    RunConfig run;
    /** Room configuration. */
    datacenter::RoomConfig room;
    /** Thermal step (s). */
    double stepS = 10.0;
    /**
     * Emergency throttle threshold margin: servers drop to the DVFS
     * floor when the sensed inlet reaches limitC - margin (C).
     */
    double throttleMarginC = 5.0;
    /** Hysteresis below the threshold before un-throttling (C). */
    double throttleHysteresisC = 2.0;
    /**
     * Cluster sample for the job-accounting side; per-server fault
     * targets index into this sample, and fan/crash populations are
     * scaled to serverCount pro-rata.
     */
    workload::DcSimConfig cluster;
};

/** One arm (no-wax or with-wax) of a scenario. */
struct ResilienceArm
{
    /** Room air temperature (C). */
    TimeSeries roomAirC;
    /** Sensed (drifting/held) inlet temperature (C). */
    TimeSeries sensedInletC;
    /** Wax melt fraction (0 without wax). */
    TimeSeries waxMelt;
    /** Relative cluster throughput (1 == all servers at nominal
     *  frequency and full utilization). */
    TimeSeries throughputRel;
    /**
     * Time until the *actual* room air crossed the limit (s);
     * hitLimit is authoritative - when false the run was censored
     * at the horizon and this equals horizonS exactly.
     */
    double rideThroughS = 0.0;
    /** True if the limit was reached within the horizon. */
    bool hitLimit = false;
    /**
     * Throughput retained over the horizon: integral of relative
     * throughput divided by the fault-free ideal (servers past the
     * limit produce nothing).
     */
    double throughputRetention = 0.0;
    /** Seconds spent emergency-throttled at the DVFS floor. */
    double throttledS = 0.0;
    /**
     * Numerical-guard counters merged across the arm's two server
     * networks (healthy + fan-failed).  A healthy run audits every
     * interval and trips never; nonzero retry/fallback counts flag a
     * solve that degraded to survive.
     */
    guard::GuardCounters guard;
};

/** Wax vs. no-wax comparison for one scenario. */
struct ResilienceResult
{
    /** The scenario that was run. */
    std::string scenario;
    ResilienceArm noWax;
    ResilienceArm withWax;
    /** Job accounting from the fault-injected cluster sample
     *  (identical for both arms: wax does not change dispatch). */
    workload::DcSimResult cluster;

    /**
     * @return Extra ride-through bought by the wax (s); 0 when
     * neither arm hit the limit, a lower bound when only the
     * with-wax arm survived to the horizon.
     */
    double extraRideThroughS() const
    {
        if (!noWax.hitLimit && !withWax.hitLimit)
            return 0.0;
        return withWax.rideThroughS - noWax.rideThroughS;
    }

    /** @return Throughput-retention gain from the wax. */
    double retentionGain() const
    {
        return withWax.throughputRetention -
               noWax.throughputRetention;
    }
};

/**
 * Resumable form of runResilienceStudy().
 *
 * The scenario runs as a sequence of phases (no-wax thermal arm,
 * with-wax thermal arm, cluster sample), each advancing in bounded
 * slices with every piece of evolving state - network enthalpies and
 * PCM hysteresis latches, injector cursors, DCSim queues and RNG
 * position, guard counters - held in members.  The run can therefore
 * stop at any slice boundary, serialize to a guard checkpoint file,
 * and resume in a new process, producing a ResilienceResult
 * bit-identical to an uninterrupted run (the integration suite pins
 * this by killing a run mid-phase at 1 and 8 threads).
 */
class ResilienceRunner
{
  public:
    /** Copies everything; validates like runResilienceStudy(). */
    ResilienceRunner(const server::ServerSpec &spec,
                     const ResilienceScenario &scenario,
                     const ResilienceConfig &options =
                         ResilienceConfig{});
    ~ResilienceRunner();

    ResilienceRunner(const ResilienceRunner &) = delete;
    ResilienceRunner &operator=(const ResilienceRunner &) = delete;

    /**
     * Run the scenario under guard::runResumable, restoring from
     * policy.path first when that file exists (it must describe the
     * same scenario).
     *
     * @return True when the scenario finished; false when paused by
     *         policy.stopAfterS (state saved to policy.path).
     * @throws FatalError when policy.path is set and
     *         policy.checkpointEveryS <= 0.
     */
    bool run(const guard::CheckpointPolicy &policy =
                 guard::CheckpointPolicy{});

    /** Extract the result.  Call once, after run() returned true. */
    ResilienceResult take();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Run one fault scenario for one platform (both arms + cluster
 * accounting).  Deterministic for a given (spec, scenario, options).
 */
ResilienceResult runResilienceStudy(
    const server::ServerSpec &spec,
    const ResilienceScenario &scenario,
    const ResilienceConfig &options = ResilienceConfig{});

/**
 * Run a scenario grid through tts::exec::parallel_map (one task per
 * scenario; bit-identical at any thread count).
 */
std::vector<ResilienceResult> runResilienceGrid(
    const server::ServerSpec &spec,
    const std::vector<ResilienceScenario> &scenarios,
    const ResilienceConfig &options = ResilienceConfig{});

/**
 * The three canonical scenarios the golden file pins:
 *
 *  - "plant_trip_total": the classic emergency - the whole plant
 *    trips 10 minutes in and never comes back.
 *  - "partial_trip_sensor_drift": 60 % capacity loss with a sensor
 *    reading 3 C low, so the emergency throttle fires late; the
 *    plant recovers after 70 minutes.
 *  - "crash_fan_storm": a seeded storm of server crashes, fan
 *    failures, a partial trip, sensor dropouts, and trace gaps
 *    (generateSchedule, fixed seed).
 *
 * @param sample_server_count Cluster-sample size the per-server
 *        fault targets index into (use options.cluster.serverCount).
 */
std::vector<ResilienceScenario> canonicalScenarios(
    std::size_t sample_server_count);

/**
 * Golden slice: the canonical scenarios on the 1U platform, keys
 * "resilience.<scenario>.<metric>".  Merged into
 * core::computeGoldenValues and recomputed by the fault test suite;
 * bit-identical at any thread count.
 */
std::map<std::string, double> resilienceGoldenValues();

} // namespace core
} // namespace tts

#endif // TTS_CORE_RESILIENCE_STUDY_HH

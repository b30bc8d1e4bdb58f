/**
 * @file
 * Runtime fault state machine.
 *
 * A FaultInjector replays a FaultSchedule against wall-clock
 * simulation time and exposes the *current* degraded state:
 * which servers are down, which fan banks have failed, how much
 * plant capacity survives, what the (possibly drifting or dead)
 * inlet sensor reads, and whether the input trace has gone dark.
 *
 * Consumers drive it with advanceTo(t) from their own event or
 * integration loop; the injector applies every scheduled event with
 * time <= t, in schedule order.  It never draws random numbers, so
 * a given schedule replays bit-identically anywhere.
 */

#ifndef TTS_FAULT_FAULT_INJECTOR_HH
#define TTS_FAULT_FAULT_INJECTOR_HH

#include <cstddef>
#include <string>
#include <vector>

#include "fault/fault_schedule.hh"
#include "guard/checkpoint.hh"

namespace tts {
namespace fault {

/** Replays a schedule; tracks the degraded component state. */
class FaultInjector
{
  public:
    /**
     * @param schedule        Schedule to replay (referenced, must
     *                        outlive the injector).
     * @param server_count    Cluster size; per-server events must
     *                        target an index below it.
     * @param initial_sensed_c Reading the sensor holds if it drops
     *                        out before ever reporting (typically
     *                        the room setpoint).
     */
    FaultInjector(const FaultSchedule &schedule,
                  std::size_t server_count,
                  double initial_sensed_c = 0.0);

    /**
     * Apply every event with time <= t (monotone: t must not move
     * backwards).
     */
    void advanceTo(double t);

    /** @return True if server i is up. */
    bool serverAlive(std::size_t i) const;
    /** @return True if server i's fan bank has failed. */
    bool fanFailed(std::size_t i) const;

    /** @return Number of servers currently up. */
    std::size_t aliveServers() const { return alive_count_; }
    /** @return Number of *alive* servers with a failed fan bank. */
    std::size_t aliveFanFailed() const;

    /** @return Surviving plant capacity fraction in [0, 1]. */
    double coolingCapacityFraction() const;

    /** @return Accumulated inlet-sensor bias (C). */
    double sensorBiasC() const { return sensor_bias_c_; }
    /** @return True if the sensor is currently reporting. */
    bool sensorValid() const { return sensor_valid_; }

    /**
     * Read the inlet sensor: the true value plus the accumulated
     * drift while the sensor reports, or the last reported value
     * (hold-last) during a dropout.
     *
     * @param true_inlet_c Physical inlet temperature (C).
     */
    double senseInlet(double true_inlet_c);

    /** @return True while the input trace is dark. */
    bool traceGapActive() const { return trace_gap_depth_ > 0; }

    /** @return True while the coolant-loop pump is failed. */
    bool pumpFailed() const { return pump_failed_; }

    /**
     * @return Accumulated heat-exchanger effectiveness fraction
     * lost to fouling, in [0, 1] (0 = clean).
     */
    double hxFoulingFraction() const
    {
        return hx_fouling_fraction_;
    }

    /** @return True while the weather trace is dark (hold-last). */
    bool weatherGapActive() const
    {
        return weather_gap_depth_ > 0;
    }

    /** @return Events applied so far. */
    std::size_t eventsApplied() const { return next_; }

    /**
     * Checkpoint the complete mutable replay state under "<key>.*":
     * the schedule cursor plus every piece of degraded-component
     * state, so a restored injector resumes the replay
     * bit-identically.  The schedule itself is configuration and is
     * not captured.
     */
    void save(guard::CheckpointWriter &w, const std::string &key) const;

    /**
     * Restore state written by save(); the injector must have been
     * built against the same schedule and server count.
     * @throws FatalError naming the key of a value that does not fit
     *         (wrong population, cursor past the schedule).
     */
    void restore(guard::CheckpointReader &r, const std::string &key);

  private:
    void apply(const FaultEvent &event);

    const FaultSchedule &schedule_;
    std::size_t next_ = 0;
    double now_ = 0.0;

    std::vector<bool> server_down_;
    std::vector<bool> fan_failed_;
    std::size_t alive_count_;
    double cooling_lost_fraction_ = 0.0;
    double sensor_bias_c_ = 0.0;
    bool sensor_valid_ = true;
    double held_reading_c_;
    int trace_gap_depth_ = 0;
    bool pump_failed_ = false;
    double hx_fouling_fraction_ = 0.0;
    int weather_gap_depth_ = 0;
};

} // namespace fault
} // namespace tts

#endif // TTS_FAULT_FAULT_INJECTOR_HH

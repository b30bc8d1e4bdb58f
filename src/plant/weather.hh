/**
 * @file
 * Weather traces for ambient-driven cooling backends.
 *
 * The economizer and MPC backends price their COP off the outdoor
 * ambient.  A WeatherTrace replaces the stylized sinusoidal
 * datacenter::AmbientModel with measured data, read from the CSV
 *
 *     t_hours,ambient_c
 *     0,11.5
 *     1,10.9
 *     ...
 *
 * The reader is hardened exactly like workload::readTraceCsv: every
 * malformed input (missing column, truncated row, non-numeric or
 * non-finite cell, out-of-order timestamp, physically absurd
 * temperature) is a FatalError naming the offending line, never a
 * silent skip - a cooling model quietly fed garbage weather would
 * misprice a year of electricity.
 *
 * WeatherSource unifies the trace and the sinusoid behind one
 * lookup and implements the WeatherGapStart/End fault semantics:
 * while a gap is active the source holds the last reading it
 * delivered (the plant keeps running on stale weather), and the held
 * value is checkpointable so a resumed run replays bit-identically.
 */

#ifndef TTS_PLANT_WEATHER_HH
#define TTS_PLANT_WEATHER_HH

#include <iosfwd>
#include <string>

#include "datacenter/free_cooling.hh"
#include "util/time_series.hh"

namespace tts {
namespace plant {

/** An immutable measured ambient-temperature trace. */
class WeatherTrace
{
  public:
    /** Coldest credible screen temperature (C); colder is a typo. */
    static constexpr double minCredibleC = -90.0;
    /** Hottest credible screen temperature (C). */
    static constexpr double maxCredibleC = 60.0;

    /**
     * Parse the t_hours,ambient_c CSV.  @throws FatalError with the
     * offending line number on any malformed input (see file
     * comment).
     */
    static WeatherTrace read(std::istream &in);

    /** read() on a string. @throws FatalError */
    static WeatherTrace parse(const std::string &text);

    /** read() on a file. @throws FatalError (unreadable path too). */
    static WeatherTrace load(const std::string &path);

    /**
     * Ambient at time t (s), linearly interpolated; times outside
     * the trace span clamp to the end samples.
     */
    double at(double t_s) const { return series_.at(t_s); }

    /** @return Number of samples (>= 2). */
    std::size_t size() const { return series_.size(); }

    /** @return First sample time (s). */
    double startS() const { return series_.startTime(); }

    /** @return The underlying (t s, ambient C) series. */
    const TimeSeries &series() const { return series_; }

  private:
    TimeSeries series_{"ambient_c"};
};

/**
 * One ambient lookup over either a WeatherTrace or the sinusoidal
 * AmbientModel, with hold-last semantics during weather-trace gaps.
 */
class WeatherSource
{
  public:
    /** Sinusoidal fallback source. */
    explicit WeatherSource(const datacenter::AmbientModel &model);

    /** Measured-trace source. */
    explicit WeatherSource(WeatherTrace trace);

    /**
     * Ambient at time t.  While @p gap_active the last delivered
     * reading is held (the WeatherGapStart fault); otherwise the
     * fresh value is read and becomes the new held reading.
     */
    double at(double t_s, bool gap_active = false);

    /** @return True when backed by a measured trace. */
    bool fromTrace() const { return from_trace_; }

    /** @return The held (last delivered) reading (checkpointing). */
    double heldC() const { return held_c_; }

    /** Restore the held reading from a checkpoint. */
    void setHeldC(double c) { held_c_ = c; }

  private:
    bool from_trace_;
    datacenter::AmbientModel model_;
    WeatherTrace trace_;
    double held_c_;
};

} // namespace plant
} // namespace tts

#endif // TTS_PLANT_WEATHER_HH

#include "fault/fault_schedule.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <istream>
#include <sstream>
#include <tuple>

#include "util/error.hh"
#include "util/random.hh"

namespace tts {
namespace fault {

namespace {

const char *const kindNames[faultKindCount] = {
    "server_recover", "fan_repair",        "cooling_restore",
    "sensor_restore", "trace_gap_end",     "pump_repair",
    "hx_defoul",      "weather_gap_end",   "server_crash",
    "fan_failure",    "cooling_trip",      "sensor_drift",
    "sensor_dropout", "trace_gap_start",   "pump_failure",
    "hx_fouling",     "weather_gap_start",
};

/** Sort key: recoveries before failures at equal times. */
std::tuple<double, int, std::size_t>
orderKey(const FaultEvent &e)
{
    return {e.timeS, static_cast<int>(e.kind), e.target};
}

std::string
formatDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/**
 * @return The server index a schedule line's target token names:
 *         noTarget for "-", else a non-empty run of decimal digits
 *         below noTarget (no sign, no base prefix, no suffix).
 * @throws FatalError naming the token and line otherwise.
 */
std::size_t
parseTarget(const std::string &token, std::size_t line_no)
{
    if (token == "-")
        return FaultEvent::noTarget;
    std::size_t target = 0;
    const char *end = token.data() + token.size();
    auto [ptr, ec] = std::from_chars(token.data(), end, target);
    require(ec == std::errc() && ptr == end &&
                target != FaultEvent::noTarget,
            "FaultSchedule::parse: bad target '" + token +
                "' at line " + std::to_string(line_no));
    return target;
}

} // namespace

const char *
toString(FaultKind kind)
{
    auto i = static_cast<std::size_t>(kind);
    invariant(i < faultKindCount, "toString: bad FaultKind");
    return kindNames[i];
}

FaultKind
faultKindFromString(const std::string &name)
{
    for (std::size_t i = 0; i < faultKindCount; ++i) {
        if (name == kindNames[i])
            return static_cast<FaultKind>(i);
    }
    fatal("FaultSchedule: unknown fault kind '" + name + "'");
}

bool
kindTargetsServer(FaultKind kind)
{
    return kind == FaultKind::ServerCrash ||
           kind == FaultKind::ServerRecover ||
           kind == FaultKind::FanFailure ||
           kind == FaultKind::FanRepair;
}

void
FaultSchedule::add(const FaultEvent &event)
{
    require(std::isfinite(event.timeS) && event.timeS >= 0.0,
            "FaultSchedule::add: event time must be finite and "
            ">= 0");
    require(std::isfinite(event.magnitude),
            "FaultSchedule::add: magnitude must be finite");
    if (kindTargetsServer(event.kind))
        require(event.target != FaultEvent::noTarget,
                "FaultSchedule::add: per-server fault needs a "
                "target server");
    else
        require(event.target == FaultEvent::noTarget,
                "FaultSchedule::add: plant/sensor/trace fault "
                "takes no target");
    if (event.kind == FaultKind::CoolingTrip ||
        event.kind == FaultKind::CoolingRestore)
        require(event.magnitude > 0.0 && event.magnitude <= 1.0,
                "FaultSchedule::add: cooling capacity fraction "
                "must be in (0, 1]");
    if (event.kind == FaultKind::HxFouling ||
        event.kind == FaultKind::HxDefoul)
        require(event.magnitude > 0.0 && event.magnitude <= 1.0,
                "FaultSchedule::add: heat-exchanger effectiveness "
                "fraction must be in (0, 1]");

    // Stable insertion keeps equal-key events in insertion order.
    auto pos = std::upper_bound(
        events_.begin(), events_.end(), event,
        [](const FaultEvent &a, const FaultEvent &b) {
            return orderKey(a) < orderKey(b);
        });
    events_.insert(pos, event);
}

void
FaultSchedule::add(double time_s, FaultKind kind, std::size_t target,
                   double magnitude)
{
    add(FaultEvent{time_s, kind, target, magnitude});
}

double
FaultSchedule::horizonS() const
{
    return events_.empty() ? 0.0 : events_.back().timeS;
}

std::string
FaultSchedule::serialize() const
{
    std::ostringstream out;
    out << "tts-fault-schedule v1\n";
    for (const auto &e : events_) {
        out << toString(e.kind) << ' ';
        if (e.target == FaultEvent::noTarget)
            out << '-';
        else
            out << e.target;
        out << ' ' << formatDouble(e.timeS) << ' '
            << formatDouble(e.magnitude) << '\n';
    }
    return out.str();
}

FaultSchedule
FaultSchedule::read(std::istream &in)
{
    std::string header;
    require(static_cast<bool>(std::getline(in, header)),
            "FaultSchedule::parse: empty input");
    while (!header.empty() &&
           (header.back() == '\r' || header.back() == ' '))
        header.pop_back();
    require(header == "tts-fault-schedule v1",
            "FaultSchedule::parse: bad header '" + header + "'");

    FaultSchedule sched;
    std::string line;
    std::size_t line_no = 1;
    while (std::getline(in, line)) {
        ++line_no;
        while (!line.empty() &&
               (line.back() == '\r' || line.back() == ' '))
            line.pop_back();
        if (line.empty())
            continue;
        std::istringstream ss(line);
        std::string kind_name, target_str;
        double time_s = 0.0, magnitude = 0.0;
        require(static_cast<bool>(ss >> kind_name >> target_str >>
                                  time_s >> magnitude),
                "FaultSchedule::parse: malformed line " +
                    std::to_string(line_no));
        std::string rest;
        require(!(ss >> rest),
                "FaultSchedule::parse: trailing garbage at line " +
                    std::to_string(line_no));
        FaultEvent e;
        e.kind = faultKindFromString(kind_name);
        e.timeS = time_s;
        e.magnitude = magnitude;
        e.target = parseTarget(target_str, line_no);
        sched.add(e);
    }
    return sched;
}

FaultSchedule
FaultSchedule::parse(const std::string &text)
{
    std::istringstream in(text);
    return read(in);
}

namespace {

/** Rng sub-stream ids for the plant/sensor/trace processes. */
enum GeneratorStream : std::uint64_t
{
    StreamCooling = 0,
    StreamSensorDrift = 1,
    StreamSensorDropout = 2,
    StreamTraceGap = 3,
    StreamPerServerBase = 4, //!< + server for crashes, then fans.
};

/**
 * The plant-loop processes draw from streams numbered after both
 * per-server blocks so enabling them never perturbs the events any
 * pre-existing process generates.
 */
std::uint64_t
plantStreamBase(std::size_t server_count)
{
    return StreamPerServerBase + 2 * server_count;
}

/**
 * Sample one failure/repair alternating process: failures arrive
 * with exponential gaps at `rate_per_s` while up; each failure is
 * followed by an exponential repair after `repair_mean_s`.  The
 * repair event is emitted only when it lands inside the horizon, so
 * a schedule can end in the failed state.
 */
void
sampleFailRepair(FaultSchedule &out, Rng rng, double rate_per_s,
                 double repair_mean_s, double horizon_s,
                 FaultKind fail, FaultKind repair,
                 std::size_t target, double magnitude)
{
    double t = rng.exponential(rate_per_s);
    while (t < horizon_s) {
        out.add(t, fail, target, magnitude);
        double down = rng.exponential(1.0 / repair_mean_s);
        if (t + down >= horizon_s)
            return;
        t += down;
        out.add(t, repair, target, magnitude);
        t += rng.exponential(rate_per_s);
    }
}

} // namespace

FaultSchedule
generateSchedule(const FaultProfile &profile, double horizon_s,
                 std::size_t server_count, std::uint64_t seed)
{
    require(horizon_s > 0.0 && std::isfinite(horizon_s),
            "generateSchedule: horizon must be finite and > 0");
    require(server_count >= 1,
            "generateSchedule: need at least one server");
    require(profile.serverCrashPerHour >= 0.0 &&
            profile.fanFailurePerHour >= 0.0 &&
            profile.coolingTripPerHour >= 0.0 &&
            profile.sensorDriftPerHour >= 0.0 &&
            profile.sensorDropoutPerHour >= 0.0 &&
            profile.traceGapPerHour >= 0.0 &&
            profile.pumpFailurePerHour >= 0.0 &&
            profile.hxFoulingPerHour >= 0.0 &&
            profile.weatherGapPerHour >= 0.0,
            "generateSchedule: rates must be >= 0");
    require(profile.coolingTripFraction > 0.0 &&
            profile.coolingTripFraction <= 1.0,
            "generateSchedule: trip fraction must be in (0, 1]");
    require(profile.hxFoulingFraction > 0.0 &&
            profile.hxFoulingFraction <= 1.0,
            "generateSchedule: fouling fraction must be in (0, 1]");
    require(profile.serverRepairMeanS > 0.0 &&
            profile.fanRepairMeanS > 0.0 &&
            profile.coolingRepairMeanS > 0.0 &&
            profile.sensorDropoutMeanS > 0.0 &&
            profile.traceGapMeanS > 0.0 &&
            profile.pumpRepairMeanS > 0.0 &&
            profile.hxCleanMeanS > 0.0 &&
            profile.weatherGapMeanS > 0.0,
            "generateSchedule: repair means must be > 0");

    const double per_hour = 1.0 / 3600.0;
    FaultSchedule out;

    if (profile.coolingTripPerHour > 0.0)
        sampleFailRepair(out,
                         Rng::forStream(seed, StreamCooling),
                         profile.coolingTripPerHour * per_hour,
                         profile.coolingRepairMeanS, horizon_s,
                         FaultKind::CoolingTrip,
                         FaultKind::CoolingRestore,
                         FaultEvent::noTarget,
                         profile.coolingTripFraction);

    if (profile.sensorDriftPerHour > 0.0) {
        Rng rng = Rng::forStream(seed, StreamSensorDrift);
        double rate = profile.sensorDriftPerHour * per_hour;
        for (double t = rng.exponential(rate); t < horizon_s;
             t += rng.exponential(rate)) {
            double delta = rng.uniform(-profile.sensorDriftMaxC,
                                       profile.sensorDriftMaxC);
            out.add(t, FaultKind::SensorDrift,
                    FaultEvent::noTarget, delta);
        }
    }

    if (profile.sensorDropoutPerHour > 0.0)
        sampleFailRepair(out,
                         Rng::forStream(seed, StreamSensorDropout),
                         profile.sensorDropoutPerHour * per_hour,
                         profile.sensorDropoutMeanS, horizon_s,
                         FaultKind::SensorDropout,
                         FaultKind::SensorRestore,
                         FaultEvent::noTarget, 0.0);

    if (profile.traceGapPerHour > 0.0)
        sampleFailRepair(out,
                         Rng::forStream(seed, StreamTraceGap),
                         profile.traceGapPerHour * per_hour,
                         profile.traceGapMeanS, horizon_s,
                         FaultKind::TraceGapStart,
                         FaultKind::TraceGapEnd,
                         FaultEvent::noTarget, 0.0);

    for (std::size_t s = 0; s < server_count; ++s) {
        if (profile.serverCrashPerHour > 0.0)
            sampleFailRepair(
                out,
                Rng::forStream(seed, StreamPerServerBase + s),
                profile.serverCrashPerHour * per_hour,
                profile.serverRepairMeanS, horizon_s,
                FaultKind::ServerCrash, FaultKind::ServerRecover,
                s, 0.0);
        if (profile.fanFailurePerHour > 0.0)
            sampleFailRepair(
                out,
                Rng::forStream(seed, StreamPerServerBase +
                                         server_count + s),
                profile.fanFailurePerHour * per_hour,
                profile.fanRepairMeanS, horizon_s,
                FaultKind::FanFailure, FaultKind::FanRepair,
                s, 0.0);
    }

    const std::uint64_t plant_base = plantStreamBase(server_count);

    if (profile.pumpFailurePerHour > 0.0)
        sampleFailRepair(out,
                         Rng::forStream(seed, plant_base + 0),
                         profile.pumpFailurePerHour * per_hour,
                         profile.pumpRepairMeanS, horizon_s,
                         FaultKind::PumpFailure,
                         FaultKind::PumpRepair,
                         FaultEvent::noTarget, 0.0);

    if (profile.hxFoulingPerHour > 0.0)
        sampleFailRepair(out,
                         Rng::forStream(seed, plant_base + 1),
                         profile.hxFoulingPerHour * per_hour,
                         profile.hxCleanMeanS, horizon_s,
                         FaultKind::HxFouling,
                         FaultKind::HxDefoul,
                         FaultEvent::noTarget,
                         profile.hxFoulingFraction);

    if (profile.weatherGapPerHour > 0.0)
        sampleFailRepair(out,
                         Rng::forStream(seed, plant_base + 2),
                         profile.weatherGapPerHour * per_hour,
                         profile.weatherGapMeanS, horizon_s,
                         FaultKind::WeatherGapStart,
                         FaultKind::WeatherGapEnd,
                         FaultEvent::noTarget, 0.0);

    return out;
}

} // namespace fault
} // namespace tts

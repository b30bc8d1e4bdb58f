#include "fault/fault_injector.hh"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "obs/obs.hh"
#include "util/error.hh"

namespace tts {
namespace fault {

FaultInjector::FaultInjector(const FaultSchedule &schedule,
                             std::size_t server_count,
                             double initial_sensed_c)
    : schedule_(schedule),
      server_down_(server_count, false),
      fan_failed_(server_count, false),
      alive_count_(server_count),
      held_reading_c_(initial_sensed_c)
{
    require(server_count >= 1,
            "FaultInjector: need at least one server");
    for (const auto &e : schedule.events()) {
        if (kindTargetsServer(e.kind))
            require(e.target < server_count,
                    "FaultInjector: event targets server " +
                        std::to_string(e.target) +
                        " but the cluster has " +
                        std::to_string(server_count));
    }
}

void
FaultInjector::advanceTo(double t)
{
    require(t >= now_,
            "FaultInjector::advanceTo: time must not move "
            "backwards");
    now_ = t;
    const auto &events = schedule_.events();
    while (next_ < events.size() && events[next_].timeS <= t) {
        apply(events[next_]);
        ++next_;
    }
}

void
FaultInjector::apply(const FaultEvent &e)
{
    if (obs::enabled()) {
        static obs::Counter &injected =
            obs::registry().counter("fault.injected.total");
        injected.add(1);
        obs::emitEvent(obs::EventKind::FaultInjected, e.timeS,
                       toString(e.kind), e.magnitude,
                       e.target == FaultEvent::noTarget
                           ? -1
                           : static_cast<std::int64_t>(e.target));
    }
    switch (e.kind) {
      case FaultKind::ServerCrash:
        if (!server_down_[e.target]) {
            server_down_[e.target] = true;
            --alive_count_;
        }
        break;
      case FaultKind::ServerRecover:
        if (server_down_[e.target]) {
            server_down_[e.target] = false;
            ++alive_count_;
        }
        break;
      case FaultKind::FanFailure:
        fan_failed_[e.target] = true;
        break;
      case FaultKind::FanRepair:
        fan_failed_[e.target] = false;
        break;
      case FaultKind::CoolingTrip:
        cooling_lost_fraction_ += e.magnitude;
        break;
      case FaultKind::CoolingRestore:
        cooling_lost_fraction_ =
            std::max(0.0, cooling_lost_fraction_ - e.magnitude);
        break;
      case FaultKind::SensorDrift:
        sensor_bias_c_ += e.magnitude;
        break;
      case FaultKind::SensorDropout:
        sensor_valid_ = false;
        break;
      case FaultKind::SensorRestore:
        sensor_valid_ = true;
        break;
      case FaultKind::TraceGapStart:
        ++trace_gap_depth_;
        break;
      case FaultKind::TraceGapEnd:
        trace_gap_depth_ = std::max(0, trace_gap_depth_ - 1);
        break;
      case FaultKind::PumpFailure:
        pump_failed_ = true;
        break;
      case FaultKind::PumpRepair:
        pump_failed_ = false;
        break;
      case FaultKind::HxFouling:
        hx_fouling_fraction_ =
            std::min(1.0, hx_fouling_fraction_ + e.magnitude);
        break;
      case FaultKind::HxDefoul:
        hx_fouling_fraction_ =
            std::max(0.0, hx_fouling_fraction_ - e.magnitude);
        break;
      case FaultKind::WeatherGapStart:
        ++weather_gap_depth_;
        break;
      case FaultKind::WeatherGapEnd:
        weather_gap_depth_ = std::max(0, weather_gap_depth_ - 1);
        break;
    }
}

bool
FaultInjector::serverAlive(std::size_t i) const
{
    invariant(i < server_down_.size(),
              "FaultInjector::serverAlive: bad index");
    return !server_down_[i];
}

bool
FaultInjector::fanFailed(std::size_t i) const
{
    invariant(i < fan_failed_.size(),
              "FaultInjector::fanFailed: bad index");
    return fan_failed_[i];
}

std::size_t
FaultInjector::aliveFanFailed() const
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < fan_failed_.size(); ++i) {
        if (fan_failed_[i] && !server_down_[i])
            ++n;
    }
    return n;
}

double
FaultInjector::coolingCapacityFraction() const
{
    return std::clamp(1.0 - cooling_lost_fraction_, 0.0, 1.0);
}

double
FaultInjector::senseInlet(double true_inlet_c)
{
    if (sensor_valid_)
        held_reading_c_ = true_inlet_c + sensor_bias_c_;
    return held_reading_c_;
}

namespace {

std::vector<std::uint64_t>
bitsOf(const std::vector<bool> &flags)
{
    return std::vector<std::uint64_t>(flags.begin(), flags.end());
}

/** Restore a per-server flag vector, keeping its population. */
void
restoreBits(guard::CheckpointReader &r, const std::string &key,
            std::vector<bool> &flags)
{
    std::vector<std::uint64_t> bits = r.expectU64Vector(key);
    r.check(bits.size() == flags.size(), key,
            "population " + std::to_string(bits.size()) +
                ", injector has " + std::to_string(flags.size()));
    for (std::size_t i = 0; i < bits.size(); ++i)
        flags[i] = bits[i] != 0;
}

/** Restore a gap depth: the injector keeps it in [0, INT_MAX]. */
int
restoreDepth(guard::CheckpointReader &r, const std::string &key)
{
    const std::int64_t depth = r.expectI64(key);
    r.check(depth >= 0 && depth <= std::numeric_limits<int>::max(), key,
            "depth " + std::to_string(depth) + " outside [0, INT_MAX]");
    return static_cast<int>(depth);
}

} // namespace

void
FaultInjector::save(guard::CheckpointWriter &w,
                    const std::string &key) const
{
    w.putU64(key + ".next", next_);
    w.put(key + ".now", now_);
    w.putU64Vector(key + ".server_down", bitsOf(server_down_));
    w.putU64Vector(key + ".fan_failed", bitsOf(fan_failed_));
    w.putU64(key + ".alive", alive_count_);
    w.put(key + ".cooling_lost", cooling_lost_fraction_);
    w.put(key + ".sensor_bias_c", sensor_bias_c_);
    w.putBool(key + ".sensor_valid", sensor_valid_);
    w.put(key + ".held_reading_c", held_reading_c_);
    w.putI64(key + ".gap_depth", trace_gap_depth_);
    w.putBool(key + ".pump_failed", pump_failed_);
    w.put(key + ".hx_fouling", hx_fouling_fraction_);
    w.putI64(key + ".weather_gap_depth", weather_gap_depth_);
}

void
FaultInjector::restore(guard::CheckpointReader &r,
                       const std::string &key)
{
    next_ = static_cast<std::size_t>(r.expectU64(key + ".next"));
    r.check(next_ <= schedule_.events().size(), key + ".next",
            "cursor past the " +
                std::to_string(schedule_.events().size()) +
                "-event schedule");
    now_ = r.expect(key + ".now");
    restoreBits(r, key + ".server_down", server_down_);
    restoreBits(r, key + ".fan_failed", fan_failed_);
    alive_count_ = static_cast<std::size_t>(r.expectU64(key + ".alive"));
    cooling_lost_fraction_ = r.expect(key + ".cooling_lost");
    sensor_bias_c_ = r.expect(key + ".sensor_bias_c");
    sensor_valid_ = r.expectBool(key + ".sensor_valid");
    held_reading_c_ = r.expect(key + ".held_reading_c");
    trace_gap_depth_ = restoreDepth(r, key + ".gap_depth");
    pump_failed_ = r.expectBool(key + ".pump_failed");
    hx_fouling_fraction_ = r.expect(key + ".hx_fouling");
    weather_gap_depth_ = restoreDepth(r, key + ".weather_gap_depth");
}

} // namespace fault
} // namespace tts

/**
 * @file
 * Receding-horizon melt/fan/DVFS controller (arXiv 2604.16199
 * style, on the repo's deterministic arithmetic).
 *
 * The controller owns a PCM cold buffer (the "melt state"): charging
 * freezes wax with extra plant load now, discharging melts it to
 * absorb IT heat later.  Each step it runs an exact dynamic program
 * over the next `mpcHorizonSteps` forecast samples, with state =
 * discretized buffer level and joint action = (buffer delta, fan
 * level, DVFS cap), minimizing time-of-use electricity cost plus a
 * penalty for compute shed by the DVFS cap, then applies only the
 * first action (classic MPC).  The plant efficiency model is the
 * economizer COP at the forecast ambient scaled by a fan factor, so
 * the controller exploits both tariff arbitrage (charge off-peak)
 * and weather arbitrage (charge in the cold hours).
 *
 * Everything is single-threaded closed-form arithmetic over the
 * forecast: no RNG, no iteration-order freedom, so results are
 * bit-identical at any thread count, and the whole mutable state
 * (buffer fill + forecast cursor) serializes in two checkpoint
 * keys.
 *
 * The terminal value of stored buffer energy is zero, so with the
 * do-nothing action (delta 0, fan 1, cap 1) always available the
 * controller never pays for charge it cannot monetize inside the
 * window; in practice it beats the static backends whenever the
 * tariff spread or the diurnal COP swing is non-trivial
 * (GoldenValues.PlantMpcClearsTheCracFloorAndBeatsTheEconomizer
 * gates the margins over CRAC and over the economizer it runs on).
 *
 * Degraded-plant steps (capacityFraction < 1) pin the buffer (delta
 * forced to 0) and shed load proportionally like the other
 * backends: a tripped plant has no headroom for arbitrage.
 */

#include <algorithm>
#include <cmath>
#include <vector>

#include "plant/backend.hh"
#include "util/error.hh"
#include "util/units.hh"

namespace tts {
namespace plant {

namespace {

/** COP multiplier for a fan level (slower air, worse exchange). */
double
fanCopFactor(double fan)
{
    return 0.85 + 0.15 * fan;
}

class MpcBackend final : public CoolingBackend
{
  public:
    explicit MpcBackend(const PlantTuning &tuning) : tuning_(tuning)
    {
        require(tuning_.mpcHorizonSteps >= 1,
                "MpcBackend: horizon must be >= 1 step");
        require(tuning_.mpcBufferLevels >= 1,
                "MpcBackend: need >= 1 buffer level");
        require(tuning_.mpcRoundTripEff > 0.0 &&
                    tuning_.mpcRoundTripEff <= 1.0,
                "MpcBackend: round-trip efficiency must be in "
                "(0, 1]");
        require(tuning_.mpcFanFraction >= 0.0 &&
                    tuning_.mpcDvfsPenaltyPerKWh >= 0.0,
                "MpcBackend: overheads must be >= 0");
        // Validate the efficiency model up front.
        tuning_.economizer.copAt(tuning_.economizer.returnAirC);
    }

    const char *name() const override { return "mpc"; }

    void
    setForecast(const TimeSeries &load_w,
                const TimeSeries &ambient_c) override
    {
        require(load_w.size() >= 2,
                "MpcBackend: forecast needs >= 2 samples");
        require(load_w.size() == ambient_c.size(),
                "MpcBackend: load/ambient forecasts must share the "
                "sample grid");
        load_ = load_w;
        ambient_ = ambient_c;
        double mean = std::max(load_.mean(), 0.0);
        buffer_cap_j_ = tuning_.mpcBufferJ > 0.0
            ? tuning_.mpcBufferJ
            : tuning_.mpcBufferHoursOfMeanLoad * 3600.0 * mean;
        level_j_ = buffer_cap_j_ /
            static_cast<double>(tuning_.mpcBufferLevels);
    }

    void
    reset() override
    {
        buffer_j_ = 0.0;
        cursor_ = 0;
    }

    PlantStepResult
    step(const PlantStep &in) override
    {
        require(!load_.empty(),
                "MpcBackend: setForecast() must run before step()");
        double load = std::max(in.heatLoadW, 0.0);
        PlantStepResult out;
        out.bufferJ = buffer_j_;

        // Degraded plant or a zero-length tail step: no arbitrage,
        // serve what capacity survives at the do-nothing action.
        if (in.dtS <= 0.0 || in.capacityFraction < 1.0 ||
            level_j_ <= 0.0) {
            out.servedW = load * in.capacityFraction;
            out.electricW = staticElectric(out.servedW, in.ambientC);
            ++cursor_;
            return out;
        }

        Action act = plan(in);
        double eff_load = act.dvfs * load;
        double charge_w = 0.0, relief_w = 0.0;
        if (act.delta > 0)
            charge_w = level_j_ /
                (tuning_.mpcRoundTripEff * in.dtS);
        else if (act.delta < 0)
            relief_w = level_j_ / in.dtS;
        double plant_w = std::max(0.0, eff_load + charge_w -
                                           relief_w);
        double cop = tuning_.economizer.copAt(in.ambientC) *
            fanCopFactor(act.fan);
        out.electricW = plant_w / cop +
            tuning_.mpcFanFraction * plant_w * act.fan * act.fan *
                act.fan;
        out.servedW = eff_load;
        out.dvfsCap = act.dvfs;
        out.fanLevel = act.fan;
        if (act.delta < 0)
            out.dischargedJ = level_j_;
        buffer_j_ = std::clamp(buffer_j_ +
                                   static_cast<double>(act.delta) *
                                       level_j_,
                               0.0, buffer_cap_j_);
        out.bufferJ = buffer_j_;
        ++cursor_;
        return out;
    }

    void
    save(guard::CheckpointWriter &w) const override
    {
        w.section("plant.mpc");
        w.put("buffer_j", buffer_j_);
        w.putU64("cursor", cursor_);
    }

    void
    restore(guard::CheckpointReader &r) override
    {
        r.expectSection("plant.mpc");
        buffer_j_ = r.expect("buffer_j");
        cursor_ = r.expectU64("cursor");
    }

  private:
    struct Action
    {
        int delta = 0;     //!< Buffer level change.
        double fan = 1.0;  //!< Fan level.
        double dvfs = 1.0; //!< DVFS cap.
    };

    double
    staticElectric(double plant_w, double ambient_c) const
    {
        double cop = tuning_.economizer.copAt(ambient_c);
        return plant_w / cop + tuning_.mpcFanFraction * plant_w;
    }

    /**
     * Cost (USD) of one DP step at the given forecast sample under
     * one joint action, plus whether the action is feasible from
     * buffer level @p level.
     */
    double
    actionCost(double t_s, double dt_s, double load_w,
               double ambient_c, const Action &a) const
    {
        double eff_load = a.dvfs * load_w;
        double charge_w = 0.0, relief_w = 0.0;
        if (a.delta > 0)
            charge_w = level_j_ / (tuning_.mpcRoundTripEff * dt_s);
        else if (a.delta < 0)
            relief_w = level_j_ / dt_s;
        double plant_w = std::max(0.0, eff_load + charge_w -
                                           relief_w);
        double cop = tuning_.economizer.copAt(ambient_c) *
            fanCopFactor(a.fan);
        double electric_w = plant_w / cop +
            tuning_.mpcFanFraction * plant_w * a.fan * a.fan *
                a.fan;
        double cost = tuning_.tariff.priceAt(t_s) *
            units::toKWh(electric_w * dt_s);
        cost += tuning_.mpcDvfsPenaltyPerKWh *
            units::toKWh((1.0 - a.dvfs) * load_w * dt_s);
        return cost;
    }

    /** Receding-horizon DP; returns the first action to apply. */
    Action
    plan(const PlantStep &in) const
    {
        const auto &times = load_.times();
        const auto &loads = load_.values();
        const auto &ambients = ambient_.values();
        std::size_t n = times.size();
        std::size_t k0 = std::min<std::size_t>(cursor_, n - 1);
        std::size_t horizon = std::min<std::size_t>(
            tuning_.mpcHorizonSteps, n - 1 - k0);
        std::size_t levels = tuning_.mpcBufferLevels;
        int cur_level = static_cast<int>(
            std::lround(buffer_j_ / level_j_));
        cur_level = std::clamp(cur_level, 0,
                               static_cast<int>(levels));

        if (horizon == 0)
            return Action{};

        // value[s]: optimal cost-to-go from buffer level s at the
        // step currently being relaxed; terminal value is zero, so
        // unmonetized charge is never bought.
        std::vector<double> value(levels + 1, 0.0);
        std::vector<double> next = value;
        std::vector<Action> first(levels + 1);

        for (std::size_t back = horizon; back-- > 0;) {
            std::size_t k = k0 + back;
            double t = times[k];
            double dt = times[k + 1] - times[k];
            double load_f = back == 0 ? std::max(in.heatLoadW, 0.0)
                                      : std::max(loads[k], 0.0);
            double ambient_f = back == 0 ? in.ambientC
                                         : ambients[k];
            std::swap(next, value);
            for (std::size_t s = 0; s <= levels; ++s) {
                double best = 0.0;
                Action best_a;
                bool have = false;
                for (int delta = -1; delta <= 1; ++delta) {
                    int s2 = static_cast<int>(s) + delta;
                    if (s2 < 0 ||
                        s2 > static_cast<int>(levels))
                        continue;
                    for (double fan : tuning_.mpcFanLevels) {
                        for (double dvfs : tuning_.mpcDvfsCaps) {
                            Action a{delta, fan, dvfs};
                            double c =
                                actionCost(t, dt, load_f,
                                           ambient_f, a) +
                                next[static_cast<std::size_t>(s2)];
                            if (!have || c < best) {
                                have = true;
                                best = c;
                                best_a = a;
                            }
                        }
                    }
                }
                value[s] = best;
                first[s] = best_a;
            }
        }
        return first[static_cast<std::size_t>(cur_level)];
    }

    PlantTuning tuning_;
    TimeSeries load_;
    TimeSeries ambient_;
    double buffer_cap_j_ = 0.0;
    double level_j_ = 0.0;
    double buffer_j_ = 0.0;
    std::uint64_t cursor_ = 0;
};

} // namespace

std::unique_ptr<CoolingBackend>
makeMpcBackend(const PlantTuning &tuning)
{
    return std::make_unique<MpcBackend>(tuning);
}

} // namespace plant
} // namespace tts

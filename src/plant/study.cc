#include "plant/study.hh"

#include <algorithm>
#include <cmath>

#include "fault/fault_injector.hh"
#include "guard/resume.hh"
#include "obs/obs.hh"
#include "obs/trace.hh"
#include "plant/weather.hh"
#include "util/error.hh"
#include "util/units.hh"

namespace tts {
namespace plant {

namespace {

WeatherSource
makeWeather(const PlantConfig &config)
{
    if (!config.weatherText.empty())
        return WeatherSource(
            WeatherTrace::parse(config.weatherText));
    if (!config.options.weatherPath.empty())
        return WeatherSource(
            WeatherTrace::load(config.options.weatherPath));
    return WeatherSource(config.ambient);
}

/** Gap-free ambient forecast on the load sample grid. */
TimeSeries
ambientForecast(const PlantConfig &config, const TimeSeries &load_w)
{
    WeatherSource src = makeWeather(config);
    TimeSeries out("ambient_c");
    for (std::size_t i = 0; i < load_w.size(); ++i) {
        double t = load_w.times()[i];
        out.append(t, src.at(t));
    }
    return out;
}

/**
 * One backend stepped over the load series, one sample per advance():
 * everything a checkpoint must capture is a member.
 */
class PlantRun : public guard::Resumable
{
  public:
    PlantRun(const PlantScenario &scenario, const PlantConfig &config)
        : load_(scenario.loadW),
          backend_(makeBackend(config.options.kind, config.tuning)),
          weather_(makeWeather(config)),
          inj_(scenario.faults, scenario.serverCount)
    {
        backend_->setForecast(load_, ambientForecast(config, load_));
        backend_->reset();
    }

    bool done() const override { return next_ >= load_.size(); }

    /** Step one sample.  @return Seconds to the next sample. */
    double
    advance(double) override
    {
        const std::size_t i = next_;
        const double t = load_.times()[i];
        const double dt =
            i + 1 < load_.size() ? load_.times()[i + 1] - t : 0.0;
        inj_.advanceTo(t);

        PlantStep in;
        in.timeS = t;
        in.dtS = dt;
        in.heatLoadW = std::max(load_.values()[i], 0.0);
        in.ambientC = weather_.at(t, inj_.weatherGapActive());
        in.capacityFraction = inj_.coolingCapacityFraction();
        in.pumpFailed = inj_.pumpFailed();
        in.hxFouling = inj_.hxFoulingFraction();
        PlantStepResult out = backend_->step(in);

        electric_.append(t, out.electricW);
        reused_j_ += out.reusedW * dt;
        unserved_j_ += std::max(in.heatLoadW - out.servedW, 0.0) * dt;
        shed_j_ += (1.0 - out.dvfsCap) * in.heatLoadW * dt;
        served_j_ += out.dvfsCap * in.heatLoadW * dt;
        nominal_j_ += in.heatLoadW * dt;
        discharge_j_ += out.dischargedJ;
        next_ = i + 1;

        if (obs::enabled()) {
            static obs::Counter &steps =
                obs::registry().counter("plant.steps.total");
            steps.add(1);
            if (out.dvfsCap < 1.0 || out.fanLevel < 1.0 ||
                out.dischargedJ > 0.0 || out.bufferJ > 0.0)
                obs::emitEvent(obs::EventKind::PlantControl, t,
                               std::string("plant.") +
                                   backend_->name(),
                               out.bufferJ,
                               static_cast<std::int64_t>(
                                   100.0 * out.dvfsCap));
        }
        return dt;
    }

    void
    save(guard::CheckpointWriter &w) const override
    {
        w.section("plant.run");
        w.putToken("backend", backend_->name());
        w.putU64("next", next_);
        w.putSeries("electric", electric_);
        w.put("reused_j", reused_j_);
        w.put("unserved_j", unserved_j_);
        w.put("shed_j", shed_j_);
        w.put("served_work_j", served_j_);
        w.put("nominal_work_j", nominal_j_);
        w.put("discharge_j", discharge_j_);
        w.put("weather.held_c", weather_.heldC());
        inj_.save(w, "inj");
        backend_->save(w);
    }

    void
    restore(guard::CheckpointReader &r) override
    {
        r.expectSection("plant.run");
        std::string got = r.expectToken("backend");
        r.check(got == backend_->name(), "backend",
                "backend mismatch (checkpoint has '" + got +
                    "', run wants '" + backend_->name() + "')");
        next_ = static_cast<std::size_t>(r.expectU64("next"));
        r.check(next_ <= load_.size(), "next",
                "sample cursor past the " +
                    std::to_string(load_.size()) + "-sample load");
        electric_ = r.expectSeries("electric", "plant_electric_w");
        reused_j_ = r.expect("reused_j");
        unserved_j_ = r.expect("unserved_j");
        shed_j_ = r.expect("shed_j");
        served_j_ = r.expect("served_work_j");
        nominal_j_ = r.expect("nominal_work_j");
        discharge_j_ = r.expect("discharge_j");
        weather_.setHeldC(r.expect("weather.held_c"));
        inj_.restore(r, "inj");
        backend_->restore(r);
    }

    /** Price the finished run (or report a paused one). */
    PlantResult
    result(const PlantScenario &scenario, const PlantConfig &config,
           bool finished)
    {
        PlantResult res;
        res.backend = backend_->name();
        res.finished = finished;
        res.steps = next_;
        res.faultEventsApplied = inj_.eventsApplied();
        res.reusedEnergyJ = reused_j_;
        res.unservedJ = unserved_j_;
        res.shedComputeJ = shed_j_;
        res.bufferDischargeJ = discharge_j_;
        res.throughputRetention =
            nominal_j_ > 0.0 ? served_j_ / nominal_j_ : 1.0;
        if (finished) {
            res.electricEnergyJ = electric_.integral(
                electric_.startTime(), electric_.endTime());
            res.peakElectricW = electric_.max();
            res.energyCostUsd = config.tuning.tariff.costOf(electric_);
            res.reuseCreditUsd = config.tuning.hwReusePricePerKWh *
                units::toKWh(reused_j_);
            res.dvfsPenaltyUsd = config.tuning.mpcDvfsPenaltyPerKWh *
                units::toKWh(shed_j_);
            res.netCostUsd = res.energyCostUsd + res.dvfsPenaltyUsd -
                res.reuseCreditUsd;
            double span_days = scenario.spanDays > 0.0
                ? scenario.spanDays
                : (load_.endTime() - load_.startTime()) / 86400.0;
            require(span_days > 0.0, "runPlant: zero-length span");
            res.yearlyNetCostUsd = res.netCostUsd * 365.25 / span_days;
            if (obs::enabled()) {
                static obs::Counter &runs =
                    obs::registry().counter("plant.runs.total");
                runs.add(1);
            }
        }
        if (config.recordSeries)
            res.electricW = std::move(electric_);
        return res;
    }

  private:
    const TimeSeries &load_;
    std::unique_ptr<CoolingBackend> backend_;
    WeatherSource weather_;
    fault::FaultInjector inj_;

    std::size_t next_ = 0; //!< Next load-series sample index.
    TimeSeries electric_{"plant_electric_w"};
    double reused_j_ = 0.0;
    double unserved_j_ = 0.0;
    double shed_j_ = 0.0;
    double served_j_ = 0.0;
    double nominal_j_ = 0.0;
    double discharge_j_ = 0.0;
};

} // namespace

PlantResult
runPlant(const PlantScenario &scenario, const PlantConfig &config)
{
    const TimeSeries &load = scenario.loadW;
    require(load.size() >= 2,
            "runPlant: load series needs >= 2 samples");
    for (double v : load.values())
        require(std::isfinite(v),
                "runPlant: non-finite load sample");
    require(scenario.serverCount >= 1,
            "runPlant: need at least one server");

    PlantRun run(scenario, config);
    bool finished = guard::runResumable(run, config.checkpoint, "plant");
    return run.result(scenario, config, finished);
}

PlantComparison
compareBackends(const PlantScenario &scenario,
                const PlantConfig &config,
                const std::vector<BackendKind> &kinds,
                exec::ThreadPool *pool)
{
    require(!kinds.empty(), "compareBackends: no backends");
    PlantComparison cmp;
    cmp.arms.resize(kinds.size());
    auto runArm = [&](std::size_t i) {
        PlantConfig arm = config;
        arm.options.kind = kinds[i];
        arm.checkpoint = guard::CheckpointPolicy{};
        cmp.arms[i] = runPlant(scenario, arm);
    };
    if (pool) {
        pool->forIndex(kinds.size(), runArm);
    } else {
        exec::ThreadPool local;
        local.forIndex(kinds.size(), runArm);
    }

    double crac = 0.0, mpc = 0.0;
    bool have_crac = false, have_mpc = false;
    for (std::size_t i = 0; i < kinds.size(); ++i) {
        if (kinds[i] == BackendKind::Crac) {
            crac = cmp.arms[i].yearlyNetCostUsd;
            have_crac = true;
        }
        if (kinds[i] == BackendKind::Mpc) {
            mpc = cmp.arms[i].yearlyNetCostUsd;
            have_mpc = true;
        }
    }
    if (have_crac && have_mpc && crac > 0.0)
        cmp.mpcVsCracSaving = (crac - mpc) / crac;
    return cmp;
}

TimeSeries
clusterCoolingLoad(const server::ServerSpec &spec,
                   const server::WaxConfig &wax,
                   std::size_t server_count,
                   const workload::WorkloadTrace &trace,
                   const datacenter::ClusterRunOptions &options)
{
    datacenter::Cluster cluster(spec, wax, server_count);
    return cluster.run(trace, options).coolingLoadW;
}

} // namespace plant
} // namespace tts

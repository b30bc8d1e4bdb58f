#include "serve/eval.hh"

#include <utility>

#include "core/cooling_study.hh"
#include "core/outage_study.hh"
#include "core/resilience_study.hh"
#include "core/run_config.hh"
#include "fault/fault_schedule.hh"
#include "fleet/fleet.hh"
#include "opt/engine.hh"
#include "opt/space.hh"
#include "plant/study.hh"
#include "server/server_spec.hh"
#include "util/error.hh"
#include "util/units.hh"
#include "workload/google_trace.hh"
#include "workload/placement.hh"

namespace tts {
namespace serve {

namespace {

server::ServerSpec
specOf(const Request &req)
{
    switch (req.platform) {
      case 1: return server::x4470Spec();
      case 2: return server::openComputeSpec();
      default: return server::rd330Spec();
    }
}

core::RunConfig
runConfigOf(const Request &req)
{
    core::RunConfig run;
    run.serverCount = req.servers;
    run.utilization = req.utilization;
    run.meltTempC = req.meltC;
    run.waxLiters = req.waxLiters;
    return run;
}

Result
evalCooling(const Request &req)
{
    workload::GoogleTraceParams tp;
    tp.durationS = units::days(req.days);
    auto trace = workload::makeGoogleTrace(tp);

    core::CoolingConfig cfg;
    cfg.run = runConfigOf(req);
    auto r = core::runCoolingStudy(specOf(req), trace, cfg);

    Result out;
    out["cooling.peak_w"] = r.peakBaselineW;
    out["cooling.peak_pcm_w"] = r.peakWithWaxW;
    out["cooling.reduction"] = r.peakReduction();
    out["cooling.resolidify_h"] = r.resolidifyHours();
    out["cooling.resolidifies_daily"] =
        r.resolidifiesDaily() ? 1.0 : 0.0;
    out["cooling.melt_c"] = r.meltTempC;
    return out;
}

Result
evalOutage(const Request &req)
{
    core::OutageConfig cfg;
    cfg.run = runConfigOf(req);
    if (req.horizonS > 0.0)
        cfg.maxDurationS = req.horizonS;
    auto r = core::runOutageStudy(specOf(req), cfg);

    Result out;
    out["outage.ride_no_wax_s"] = r.noWax.rideThroughS;
    out["outage.ride_with_wax_s"] = r.withWax.rideThroughS;
    out["outage.extra_ride_s"] = r.extraRideThroughS();
    out["outage.hit_limit_no_wax"] = r.noWax.hitLimit ? 1.0 : 0.0;
    out["outage.hit_limit_with_wax"] =
        r.withWax.hitLimit ? 1.0 : 0.0;
    return out;
}

Result
evalResilience(const Request &req)
{
    core::ResilienceConfig cfg;
    cfg.run = runConfigOf(req);
    // The thermal loop models a room-scale sample, not the full
    // population knob meant for the cooling study.
    cfg.run.serverCount = core::ResilienceConfig{}.run.serverCount;

    core::ResilienceScenario scenario;
    if (!req.faults.empty()) {
        scenario.name = "inline";
        scenario.faults = fault::FaultSchedule::parse(req.faults);
        scenario.utilization = req.utilization;
        if (req.horizonS > 0.0)
            scenario.horizonS = req.horizonS;
        else if (scenario.faults.horizonS() > 0.0)
            scenario.horizonS = scenario.faults.horizonS() + 1800.0;
    } else {
        bool found = false;
        for (auto &s : core::canonicalScenarios(
                 cfg.cluster.serverCount)) {
            if (s.name == req.scenario) {
                scenario = std::move(s);
                found = true;
                break;
            }
        }
        require(found, "request: unknown scenario \"" +
                           req.scenario +
                           "\" (try plant_trip_total, "
                           "partial_trip_sensor_drift, "
                           "crash_fan_storm)");
        scenario.utilization = req.utilization;
        if (req.horizonS > 0.0)
            scenario.horizonS = req.horizonS;
    }

    auto r = core::runResilienceStudy(specOf(req), scenario, cfg);

    Result out;
    out["resilience.ride_no_wax_s"] = r.noWax.rideThroughS;
    out["resilience.ride_with_wax_s"] = r.withWax.rideThroughS;
    out["resilience.extra_ride_s"] = r.extraRideThroughS();
    out["resilience.retention_no_wax"] =
        r.noWax.throughputRetention;
    out["resilience.retention_with_wax"] =
        r.withWax.throughputRetention;
    out["resilience.retention_gain"] = r.retentionGain();
    out["resilience.throttled_no_wax_s"] = r.noWax.throttledS;
    out["resilience.throttled_with_wax_s"] = r.withWax.throttledS;
    out["resilience.jobs_completed"] =
        static_cast<double>(r.cluster.completedJobs);
    out["resilience.jobs_dropped"] =
        static_cast<double>(r.cluster.droppedJobs);
    return out;
}

Result
evalPlant(const Request &req)
{
    workload::GoogleTraceParams tp;
    tp.durationS = units::days(req.days);
    auto trace = workload::makeGoogleTrace(tp);

    core::RunConfig run = runConfigOf(req);
    plant::PlantScenario scenario;
    scenario.loadW = plant::clusterCoolingLoad(
        specOf(req), run.waxConfig(), req.servers, trace);
    scenario.serverCount = req.servers;
    if (!req.faults.empty())
        scenario.faults = fault::FaultSchedule::parse(req.faults);

    plant::PlantConfig cfg;
    cfg.options.kind =
        plant::backendKindFromString(req.plantBackend);
    cfg.weatherText = req.weather;
    cfg.recordSeries = false;
    plant::PlantResult r = plant::runPlant(scenario, cfg);

    Result out;
    out["plant.electric_energy_kwh"] = r.electricEnergyJ / 3.6e6;
    out["plant.peak_electric_w"] = r.peakElectricW;
    out["plant.energy_cost_usd"] = r.energyCostUsd;
    out["plant.reuse_credit_usd"] = r.reuseCreditUsd;
    out["plant.dvfs_penalty_usd"] = r.dvfsPenaltyUsd;
    out["plant.net_cost_usd"] = r.netCostUsd;
    out["plant.yearly_net_cost_usd"] = r.yearlyNetCostUsd;
    out["plant.throughput_retention"] = r.throughputRetention;
    out["plant.fault_events"] =
        static_cast<double>(r.faultEventsApplied);
    return out;
}

/**
 * The fleet study.  Coarse steps (300 s control, 60 s thermal) keep a
 * served run orders of magnitude cheaper than the offline 2-day
 * transient while exercising the same dedupe and placement machinery.
 */
Result
evalFleet(const Request &req)
{
    workload::GoogleTraceParams tp;
    tp.durationS = units::days(req.days);
    const workload::WorkloadTrace trace = workload::makeGoogleTrace(tp);

    fleet::FleetConfig cfg;
    cfg.run = runConfigOf(req);
    cfg.durationS = units::days(req.days);
    cfg.controlIntervalS = 300.0;
    cfg.thermalStepS = 60.0;
    cfg.placement = workload::placementPolicyFromName(req.placement);
    fleet::FleetSim sim(specOf(req), trace, cfg);
    sim.run();
    const fleet::FleetResult r = sim.take();

    Result out;
    out["fleet.peak_cooling_w"] = r.peakCoolingW;
    out["fleet.peak_it_w"] = r.peakItPowerW;
    out["fleet.cooling_energy_j"] = r.coolingEnergyJ;
    out["fleet.servers"] = static_cast<double>(r.serverCount);
    out["fleet.materialized_rows"] =
        static_cast<double>(r.materializedRows);
    out["fleet.events_applied"] =
        static_cast<double>(r.eventsApplied);
    out["fleet.dedupe_factor"] = r.dedupeFactor();
    // The full digest is 64 bits and doubles carry 53; the low half
    // is still a sharp bit-identity witness in a flat result map.
    out["fleet.digest32"] =
        static_cast<double>(r.stateDigest & 0xffffffffull);
    return out;
}

Result
evalOptimize(const Request &req)
{
    // A served search runs on the trimmed single-archetype space and
    // the coarse oracle (the tts::opt fast-battery shape): small
    // enough to answer interactively, deterministic by the engine's
    // own contract, so the unified cache can memoize it like any
    // other study.
    opt::SpaceOptions so;
    so.meltMinC = 48.0;
    so.meltMaxC = 58.0;
    so.meltStepC = 1.0;
    so.boxRadius = 2;
    so.lockPolicy = true; // Single archetype: placement is moot.
    opt::SearchSpace space = opt::makeSearchSpace({specOf(req)}, so);

    workload::GoogleTraceParams tp;
    tp.durationS = units::days(req.days);
    tp.sampleIntervalS = 900.0;
    workload::WorkloadTrace trace = workload::makeGoogleTrace(tp);

    opt::OptOptions oo;
    oo.seed = req.optSeed;
    oo.budget = req.budget;
    oo.restarts = req.restarts;
    oo.objective = opt::objectiveFromName(req.objective);
    oo.fleet.run.serverCount = req.servers;
    oo.fleet.run.utilization = req.utilization;
    oo.fleet.durationS = units::days(req.days);
    oo.fleet.controlIntervalS = 300.0;
    oo.fleet.thermalStepS = 60.0;
    opt::OptResult r = opt::optimizeWaxPlacement(space, trace, oo);

    Result out;
    out["opt.best_cost"] = r.bestCost;
    out["opt.baseline_cost"] = r.baselineCost;
    out["opt.beats_baseline"] = r.beatsBaseline() ? 1.0 : 0.0;
    out["opt.peak_cooling_w"] = r.bestOutcome.peakCoolingW;
    out["opt.tco_usd_per_year"] = r.bestOutcome.tcoUsdPerYear;
    out["opt.mass_kg"] = r.choice[0].massKg;
    out["opt.liters"] = r.choice[0].liters;
    out["opt.boxes"] = static_cast<double>(r.choice[0].boxes);
    out["opt.melt_c"] = r.choice[0].meltTempC;
    out["opt.evaluations"] = static_cast<double>(r.evaluations);
    out["opt.oracle_calls"] = static_cast<double>(r.oracleCalls);
    out["opt.memo_hits"] = static_cast<double>(r.memoHits);
    out["opt.polish_rounds"] =
        static_cast<double>(r.polishRounds);
    return out;
}

} // namespace

Result
evaluate(const Request &req)
{
    if (req.study == "cooling")
        return evalCooling(req);
    if (req.study == "outage")
        return evalOutage(req);
    if (req.study == "resilience")
        return evalResilience(req);
    if (req.study == "plant")
        return evalPlant(req);
    if (req.study == "fleet")
        return evalFleet(req);
    if (req.study == "optimize")
        return evalOptimize(req);
    // parseRequest validates the study name; reaching here means a
    // caller built a Request by hand and got it wrong.
    fatal("evaluate: unknown study \"" + req.study + "\"");
}

} // namespace serve
} // namespace tts

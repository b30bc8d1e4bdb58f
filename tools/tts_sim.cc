/**
 * @file
 * tts_sim - command-line front end for the thermal-time-shifting
 * simulator.
 *
 * Usage:
 *   tts_sim trace      [--days=N] [--weekend=F] [--csv]
 *   tts_sim cooling    [--platform=P] [--melt=C] [--csv]
 *   tts_sim throughput [--platform=P] [--capacity=F] [--csv]
 *   tts_sim optimize   [--platform=P] [--servers=N] [--mixed]
 *                      [--budget=N] [--restarts=N]
 *                      [--objective=peak|tco] [--seed=S]
 *                      [--min=C] [--max=C] [--step=C] [--sweep]
 *   tts_sim outage     [--platform=P] [--util=U]
 *   tts_sim resilience [--platform=P] [--util=U]
 *                      [--scenario=NAME | --faults=FILE]
 *                      [--checkpoint=FILE] [--checkpoint-every=SEC]
 *                      [--resume=FILE] [--stop-after=SEC]
 *   tts_sim fleet      [--platform=P] [--servers=N] [--mixed]
 *                      [--days=N] [--perturb-rate=R] [--shards=K]
 *                      [--seed=S] [--csv] [checkpoint flags as
 *                      above] [--backend=B] [--weather=FILE]
 *   tts_sim plant      [--platform=P] [--servers=N] [--days=N]
 *                      [--backend=crac|hot_water|economizer|mpc|all]
 *                      [--weather=FILE] [--faults=FILE]
 *                      [checkpoint flags as above]
 *   tts_sim report     [--platform=P] [--out=DIR]
 *   tts_sim validate
 *
 * All commands also accept [--metrics=FILE] [--trace=FILE]
 * [--trace-format=jsonl|chrome].
 *
 * The resilience command injects a fault scenario (server crashes,
 * fan failures, partial cooling trips, sensor drift/dropout, trace
 * gaps) and compares wax vs. no-wax ride-through and throughput
 * retention.  --scenario picks a canonical one (plant_trip_total,
 * partial_trip_sensor_drift, crash_fan_storm) or 'all' to sweep the
 * whole canonical grid; --faults loads a schedule file in the
 * tts-fault-schedule v1 format.
 *
 * Long runs can be checkpointed and resumed: --checkpoint=FILE
 * writes a CRC-protected snapshot of the full simulation state every
 * --checkpoint-every simulated seconds (default 900), --resume=FILE
 * restores from an existing snapshot and continues (the result is
 * bit-identical to an uninterrupted run), and --stop-after pauses
 * after that much simulated time, writing a final snapshot to the
 * --checkpoint or --resume file - useful for rehearsing a
 * kill/resume cycle.  A --resume file that does not exist, or
 * --stop-after with neither file, is an error for every command, as
 * is a --checkpoint-every <= 0 with a file.  --scenario=all runs
 * the three canonical scenarios in parallel and takes none of these
 * flags: checkpoint one --scenario at a time.
 *
 * Any command taking a trace accepts --trace-csv=FILE to load a
 * measured CSV trace (t_hours,Orkut,Search,FBmr) instead of the
 * synthetic generator.
 *
 * The fleet command scales the simulation from one server to a 10 MW
 * warehouse (~40k servers): servers sharing a platform archetype and
 * an unperturbed input stream advance as one deduplicated baseline
 * row, while perturbed servers (--perturb-rate events per server-day:
 * utilization offsets, inlet drift, fan failures) materialize private
 * rows sharded across the thread pool.  Results are bit-identical at
 * any thread count and shard width, and long runs checkpoint/resume
 * through the same flags as resilience.
 *
 * Observability: --metrics=FILE dumps the obs metrics registry as
 * kv-json after the command finishes; --trace=FILE writes the
 * structured event trace (melt transitions, DVFS throttling, fault
 * injections, guard trips, checkpoint I/O, job dispatch) in the
 * format picked by --trace-format=jsonl|chrome (default jsonl; the
 * chrome form loads in chrome://tracing or Perfetto).  Either flag
 * enables collection; both add nothing measurable when absent.
 *
 * The optimize command runs the tts::opt wax-placement search: a
 * seeded multi-start annealer over per-archetype wax mass, melt
 * temperature, and box count (plus the job-placement policy under
 * --mixed), with the fleet simulator as the cost oracle, an LRU
 * memo over candidate fingerprints and, under it, a memo of archetype
 * runs (the # evals= line counts both: memo_hits, arch_runs and
 * arch_memo_hits).  --objective picks peak cooling
 * load (default) or annualized TCO; --min/--max/--step bound the
 * melt grid; the search is bit-identical at any thread count.
 * --sweep runs the legacy single-server melting-temperature sweep
 * instead.
 *
 * The plant command runs the cluster's heat load through one of the
 * pluggable cooling-plant backends (tts::plant): the paper's CRAC
 * (the default, priced exactly like the legacy cooling model), a
 * hot-water loop that captures heat for reuse, a free-air economizer
 * under a measured weather trace (--weather, t_hours,ambient_c CSV),
 * or a receding-horizon MPC controller that co-schedules fan speed,
 * DVFS caps, and melt state against the forecast.  --backend=all
 * compares every backend over the same scenario.  The same --backend
 * and --weather flags select the plant for the fleet command, which
 * then appends a plant-cost line to its summary.
 *
 * Platforms: 0 = 1U RD330 (default), 1 = 2U X4470, 2 = Open Compute
 * blade (future 1.5 l layout).  --csv switches the series output
 * from an aligned table to comma-separated rows for plotting.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "obs/obs.hh"

#include "core/run_config.hh"
#include "core/thermal_time_shifting.hh"
#include "core/outage_study.hh"
#include "core/report.hh"
#include "core/resilience_study.hh"
#include "fault/fault_schedule.hh"
#include "fleet/fleet.hh"
#include "guard/resume.hh"
#include "opt/engine.hh"
#include "opt/space.hh"
#include "plant/study.hh"
#include "workload/trace_io.hh"
#include "util/cli.hh"
#include "util/error.hh"
#include "util/kv_json.hh"
#include "util/table.hh"
#include "util/units.hh"

namespace {

using namespace tts;

/** Parsed command-line options. */
struct Options
{
    std::string command;
    int platform = 0;
    double days = 2.0;
    double weekend = 1.0;
    double melt = 0.0;
    double capacity = 0.0;
    double util = 0.75;
    double sweep_min = 44.0;
    double sweep_max = 60.0;
    double sweep_step = 1.0;
    bool csv = false;
    std::string trace_file;
    std::string out_dir = ".";
    std::string scenario = "plant_trip_total";
    std::string faults_file;
    std::string checkpoint_file;
    std::string resume_file;
    double checkpoint_every = 900.0;
    double stop_after = -1.0;
    std::string metrics_file;
    std::string obs_trace_file;
    std::string trace_format = "jsonl";
    std::size_t servers = 40320;
    bool mixed = false;
    double perturb_rate = 0.01;
    std::size_t shards = 0;
    std::size_t seed = 0x715f1ee7;
    std::size_t budget = 128;
    std::size_t restarts = 4;
    std::string objective = "peak";
    bool sweep = false;
    std::string backend = "crac";
    std::string weather_file;
};

/** Register every flag on the parser; shared with --help output. */
void
registerFlags(cli::Parser &p, Options *o)
{
    p.addPositional("command",
                    &o->command,
                    "trace|cooling|throughput|optimize|outage|"
                    "resilience|fleet|plant|report|validate");
    p.addInt("platform", &o->platform,
             "0=1U RD330, 1=2U X4470, 2=Open Compute");
    p.addDouble("days", &o->days, "trace length (days)");
    p.addDouble("weekend", &o->weekend,
                "weekend load factor (enables weekly shape)");
    p.addDouble("melt", &o->melt,
                "melting temperature (C); 0 = platform default");
    p.addDouble("capacity", &o->capacity,
                "cooling capacity fraction; 0 = calibrated");
    p.addDouble("util", &o->util, "held utilization");
    p.addDouble("min", &o->sweep_min, "melt sweep lower bound (C)");
    p.addDouble("max", &o->sweep_max, "melt sweep upper bound (C)");
    p.addDouble("step", &o->sweep_step, "melt sweep step (C)");
    p.addFlag("csv", &o->csv, "emit csv instead of a table");
    p.addString("trace-csv", &o->trace_file,
                "load a measured CSV trace instead of synthesizing");
    p.addString("out", &o->out_dir, "report output directory");
    p.addString("scenario", &o->scenario,
                "fault scenario name, or 'all' for the grid");
    p.addString("faults", &o->faults_file,
                "fault schedule file (tts-fault-schedule v1)");
    p.addString("checkpoint", &o->checkpoint_file,
                "checkpoint snapshot file for long runs");
    p.addString("resume", &o->resume_file,
                "resume from a checkpoint snapshot");
    p.addDouble("checkpoint-every", &o->checkpoint_every,
                "simulated seconds between checkpoints");
    p.addDouble("stop-after", &o->stop_after,
                "pause after this much simulated time (s); -1 = run "
                "to completion");
    p.addString("metrics", &o->metrics_file,
                "dump obs metrics registry (kv-json) here");
    p.addString("trace", &o->obs_trace_file,
                "write the structured obs event trace here");
    p.addChoice("trace-format", &o->trace_format,
                {"jsonl", "chrome"}, "obs trace format");
    p.addSize("servers", &o->servers, "fleet population");
    p.addFlag("mixed", &o->mixed,
              "split the fleet across all three platforms");
    p.addDouble("perturb-rate", &o->perturb_rate,
                "perturbation events per server-day");
    p.addSize("shards", &o->shards,
              "fleet shard count; 0 = default (8)");
    p.addSize("seed", &o->seed, "fleet perturbation / search seed");
    p.addSize("budget", &o->budget,
              "optimize: proposal evaluations across restarts");
    p.addSize("restarts", &o->restarts,
              "optimize: independent annealing restarts");
    p.addChoice("objective", &o->objective, {"peak", "tco"},
                "optimize: minimize peak cooling W or TCO $/yr");
    p.addFlag("sweep", &o->sweep,
              "optimize: legacy single-server melt sweep instead "
              "of the fleet search");
    p.addChoice("backend", &o->backend,
                {"crac", "hot_water", "economizer", "mpc", "all"},
                "cooling-plant backend ('all': plant command "
                "comparison)");
    p.addString("weather", &o->weather_file,
                "weather trace CSV (t_hours,ambient_c) for the "
                "economizer/MPC backends");
}

Options
parse(int argc, char **argv)
{
    Options o;
    cli::Parser p("tts_sim",
                  "Thermal-time-shifting simulator front end.");
    registerFlags(p, &o);
    switch (p.parse(argc - 1, argv + 1)) {
      case cli::Status::Help:
        std::fputs(p.helpText().c_str(), stdout);
        std::exit(0);
      case cli::Status::Error:
        std::fprintf(stderr, "%s\n", p.error().c_str());
        std::exit(2);
      case cli::Status::Ok:
        break;
    }
    if (o.command.empty()) {
        std::fprintf(stderr,
                     "usage: tts_sim "
                     "<trace|cooling|throughput|optimize|outage|"
                     "resilience|fleet|plant|report|validate> "
                     "[options]\n");
        std::exit(2);
    }
    return o;
}

/** The shared model inputs this invocation asks for. */
core::RunConfig
runConfigOf(const Options &o)
{
    core::RunConfig run;
    run.meltTempC = o.melt;
    run.utilization = o.util;
    return run;
}

/**
 * The checkpoint policy the flags ask for.  The library restores
 * whenever the policy's file exists, so the flags that only make
 * sense with a file are checked here, for every command.
 *
 * @throws tts::Error on a non-positive interval with a file, a
 *         --resume file that does not exist, or --stop-after with
 *         no file to save the paused state to.
 */
guard::CheckpointPolicy
checkpointPolicyOf(const Options &o)
{
    guard::CheckpointPolicy policy;
    policy.path = !o.resume_file.empty() ? o.resume_file
                                         : o.checkpoint_file;
    policy.checkpointEveryS = o.checkpoint_every;
    policy.stopAfterS = o.stop_after;
    policy.validate();
    require(o.resume_file.empty() ||
                guard::checkpointExists(o.resume_file),
            "--resume: no checkpoint file '" + o.resume_file +
                "' (start the run with --checkpoint=FILE)");
    require(o.stop_after < 0.0 || !policy.path.empty(),
            "--stop-after needs --checkpoint=FILE or --resume=FILE "
            "to save the paused state to");
    return policy;
}

/** The cooling plant --backend and --weather select. */
plant::PlantOptions
plantOptionsOf(const Options &o)
{
    plant::PlantOptions options;
    // "all" is the plant command's comparison mode, not a backend;
    // cmdPlant branches on it, and every other command keeps CRAC.
    if (o.backend != "all")
        options.kind = plant::backendKindFromString(o.backend);
    options.weatherPath = o.weather_file;
    return options;
}

/** Tell the user where a paused run left its state.  @return 0. */
int
reportPause(const Options &o, const guard::CheckpointPolicy &policy)
{
    std::printf("paused after %.0f simulated seconds; state saved to "
                "%s (rerun with --resume=%s to continue)\n",
                o.stop_after, policy.path.c_str(), policy.path.c_str());
    return 0;
}

server::ServerSpec
platformOf(const Options &o)
{
    switch (o.platform) {
      case 1: return server::x4470Spec();
      case 2: return server::openComputeSpec();
      default: return server::rd330Spec();
    }
}

workload::WorkloadTrace
traceOf(const Options &o)
{
    if (!o.trace_file.empty())
        return workload::loadTrace(o.trace_file);
    workload::GoogleTraceParams p;
    p.durationS = units::days(o.days);
    if (o.weekend < 1.0) {
        p.weekendFactor = o.weekend;
        p.startDayOfWeek = 0;
    }
    return workload::makeGoogleTrace(p);
}

void
emitSeries(const Options &o,
           const std::vector<const TimeSeries *> &series)
{
    std::vector<std::string> headers{"t_h"};
    for (const auto *s : series)
        headers.push_back(s->name());
    if (o.csv) {
        CsvWriter csv(std::cout, headers);
        for (double t = series[0]->startTime();
             t <= series[0]->endTime(); t += 1800.0) {
            std::vector<std::string> row{
                formatFixed(units::toHours(t), 2)};
            for (const auto *s : series)
                row.push_back(formatFixed(s->at(t), 4));
            csv.writeRow(row);
        }
        return;
    }
    AsciiTable table(headers);
    for (double t = series[0]->startTime();
         t <= series[0]->endTime(); t += units::hours(2.0)) {
        std::vector<std::string> row{
            formatFixed(units::toHours(t), 0)};
        for (const auto *s : series)
            row.push_back(formatFixed(s->at(t), 3));
        table.addRow(row);
    }
    table.print(std::cout);
}

int
cmdTrace(const Options &o)
{
    auto trace = traceOf(o);
    std::vector<const TimeSeries *> series;
    for (auto c : workload::allJobClasses)
        series.push_back(&trace.series(c));
    series.push_back(&trace.total());
    emitSeries(o, series);
    return 0;
}

int
cmdCooling(const Options &o)
{
    auto spec = platformOf(o);
    core::CoolingConfig opts;
    opts.run = runConfigOf(o);
    auto r = core::runCoolingStudy(spec, traceOf(o), opts);
    r.baseline.coolingLoadW.setName("cooling_w");
    r.withWax.coolingLoadW.setName("cooling_pcm_w");
    emitSeries(o, {&r.baseline.coolingLoadW,
                   &r.withWax.coolingLoadW,
                   &r.withWax.waxMeltFraction});
    std::printf("# platform=%s melt=%.1fC peak=%.1fkW "
                "peak_pcm=%.1fkW reduction=%.2f%%\n",
                spec.name.c_str(), r.meltTempC,
                r.peakBaselineW / 1e3, r.peakWithWaxW / 1e3,
                100.0 * r.peakReduction());
    return 0;
}

int
cmdThroughput(const Options &o)
{
    auto spec = platformOf(o);
    core::ThroughputConfig opts;
    opts.run = runConfigOf(o);
    opts.coolingCapacityFraction = o.capacity > 0.0
        ? o.capacity
        : core::calibratedCapacityFraction(spec);
    auto r = core::runThroughputStudy(spec, traceOf(o), opts);
    emitSeries(o, {&r.ideal, &r.noWax, &r.withWax, &r.waxMelt});
    std::printf("# platform=%s capacity=%.1f%% melt=%.1fC "
                "gain=%.1f%% delay=%.1fh\n",
                spec.name.c_str(),
                100.0 * opts.coolingCapacityFraction, r.meltTempC,
                100.0 * r.throughputGain(), r.delayHours);
    return 0;
}

int
cmdOptimizeSweep(const Options &o)
{
    auto spec = platformOf(o);
    core::MeltOptimizerOptions opts;
    opts.minC = o.sweep_min;
    opts.maxC = o.sweep_max;
    opts.stepC = o.sweep_step;
    auto r = core::optimizeMeltingTemp(
        spec, traceOf(o), pcm::commercialParaffin(), opts);
    AsciiTable t({"melt_c", "reduction_pct", "onset_util"});
    for (const auto &pt : r.sweep) {
        t.addRow({formatFixed(pt.meltTempC, 1),
                  formatFixed(100.0 * pt.peakReduction, 2),
                  pt.meltOnsetUtilization < 0.0
                      ? std::string("-")
                      : formatFixed(pt.meltOnsetUtilization, 2)});
    }
    t.print(std::cout);
    std::printf("# best melt=%.1fC reduction=%.2f%%\n",
                r.meltTempC, 100.0 * r.peakReduction);
    return 0;
}

int
cmdOptimize(const Options &o)
{
    if (o.sweep)
        return cmdOptimizeSweep(o);

    std::vector<server::ServerSpec> specs;
    if (o.mixed)
        specs = core::paperPlatforms();
    else
        specs = {platformOf(o)};

    opt::SpaceOptions sopts;
    sopts.meltMinC = o.sweep_min;
    sopts.meltMaxC = o.sweep_max;
    sopts.meltStepC = o.sweep_step;
    sopts.lockPolicy = !o.mixed; // One archetype: placement is moot.
    opt::SearchSpace space = opt::makeSearchSpace(specs, sopts);

    opt::OptOptions opts;
    opts.seed = o.seed;
    opts.budget = o.budget;
    opts.restarts = o.restarts;
    opts.objective = opt::objectiveFromName(o.objective);
    opts.plant = plantOptionsOf(o);
    opts.fleet.run = runConfigOf(o);
    opts.fleet.run.serverCount = o.servers;
    opts.fleet.durationS = units::days(o.days);
    opts.fleet.mixedPlatforms = o.mixed;
    opts.fleet.shardCount = o.shards;
    opts.fleet.seed = o.seed;
    opts.fleet.perturb.eventsPerServerDay = o.perturb_rate;

    auto r = opt::optimizeWaxPlacement(space, traceOf(o), opts);

    AsciiTable t({"platform", "mass_kg", "liters", "boxes",
                  "melt_c"});
    for (const auto &c : r.choice) {
        t.addRow({c.platform, formatFixed(c.massKg, 2),
                  formatFixed(c.liters, 2),
                  formatFixed(static_cast<double>(c.boxes), 0),
                  formatFixed(c.meltTempC, 1)});
    }
    t.print(std::cout);
    std::printf("# objective=%s policy=%s space=%llu candidates\n",
                o.objective.c_str(), r.policy.c_str(),
                static_cast<unsigned long long>(space.size()));
    std::printf("# baseline(paper uniform)=%.4g best=%.4g "
                "improvement=%.2f%% beats_baseline=%d\n",
                r.baselineCost, r.bestCost,
                100.0 * (r.baselineCost - r.bestCost) /
                    r.baselineCost,
                r.beatsBaseline() ? 1 : 0);
    std::printf("# evals=%llu oracle_calls=%llu memo_hits=%llu "
                "arch_runs=%llu arch_memo_hits=%llu restarts=%zu "
                "polish_rounds=%zu\n",
                static_cast<unsigned long long>(r.evaluations),
                static_cast<unsigned long long>(r.oracleCalls),
                static_cast<unsigned long long>(r.memoHits),
                static_cast<unsigned long long>(r.archRuns),
                static_cast<unsigned long long>(r.archMemoHits),
                opts.restarts, r.polishRounds);
    return 0;
}

int
cmdOutage(const Options &o)
{
    auto spec = platformOf(o);
    core::OutageConfig opts;
    opts.run = runConfigOf(o);
    auto r = core::runOutageStudy(spec, opts);
    std::printf("platform=%s util=%.2f\n", spec.name.c_str(),
                o.util);
    std::printf("ride-through without wax: %.1f min%s\n",
                r.noWax.rideThroughS / 60.0,
                r.noWax.hitLimit ? "" : " (never hit limit)");
    std::printf("ride-through with wax:    %.1f min%s\n",
                r.withWax.rideThroughS / 60.0,
                r.withWax.hitLimit ? "" : " (never hit limit)");
    std::printf("extra time bought by PCM: %.1f min\n",
                r.extraRideThroughS() / 60.0);
    return 0;
}

int
cmdResilienceAll(const server::ServerSpec &spec,
                 const core::ResilienceConfig &opts)
{
    auto scenarios =
        core::canonicalScenarios(opts.cluster.serverCount);
    auto results = core::runResilienceGrid(spec, scenarios, opts);
    AsciiTable t({"scenario", "ride_no_wax", "ride_wax",
                  "extra_min", "retention_gain", "guard_trips"});
    for (const auto &r : results) {
        const auto trips = r.noWax.guard.sentinelTrips +
            r.noWax.guard.auditTrips + r.withWax.guard.sentinelTrips +
            r.withWax.guard.auditTrips;
        t.addRow({r.scenario,
                  formatFixed(r.noWax.rideThroughS / 60.0, 1),
                  formatFixed(r.withWax.rideThroughS / 60.0, 1),
                  formatFixed(r.extraRideThroughS() / 60.0, 1),
                  formatFixed(r.withWax.throughputRetention -
                                  r.noWax.throughputRetention,
                              4),
                  formatFixed(static_cast<double>(trips), 0)});
    }
    t.print(std::cout);
    return 0;
}

int
cmdResilience(const Options &o, const guard::CheckpointPolicy &policy)
{
    auto spec = platformOf(o);
    core::ResilienceConfig opts;
    opts.run = runConfigOf(o);

    if (o.scenario == "all" && o.faults_file.empty()) {
        // A policy with no file also means no --stop-after (see
        // checkpointPolicyOf).
        require(policy.path.empty(),
                "--scenario=all cannot be checkpointed, resumed or "
                "paused; checkpoint one --scenario at a time");
        return cmdResilienceAll(spec, opts);
    }

    core::ResilienceScenario scenario;
    if (!o.faults_file.empty()) {
        std::ifstream in(o.faults_file);
        require(in.good(), "cannot open fault schedule '" +
                               o.faults_file + "'");
        scenario.name = "file";
        scenario.faults = fault::FaultSchedule::read(in);
        scenario.utilization = o.util;
    } else {
        bool found = false;
        for (auto &s : core::canonicalScenarios(
                 opts.cluster.serverCount)) {
            if (s.name == o.scenario) {
                scenario = std::move(s);
                found = true;
                break;
            }
        }
        require(found, "unknown scenario '" + o.scenario +
                           "' (try plant_trip_total, "
                           "partial_trip_sensor_drift, "
                           "crash_fan_storm)");
    }

    core::ResilienceRunner runner(spec, scenario, opts);
    if (!runner.run(policy))
        return reportPause(o, policy);
    auto r = runner.take();
    std::printf("platform=%s scenario=%s events=%zu util=%.2f "
                "horizon=%.0fmin\n",
                spec.name.c_str(), scenario.name.c_str(),
                scenario.faults.size(), scenario.utilization,
                scenario.horizonS / 60.0);
    auto arm_line = [](const char *label,
                       const core::ResilienceArm &a) {
        std::printf("%s ride-through %.1f min%s, retention "
                    "%.1f%%, throttled %.1f min\n",
                    label, a.rideThroughS / 60.0,
                    a.hitLimit ? "" : " (survived horizon)",
                    100.0 * a.throughputRetention,
                    a.throttledS / 60.0);
    };
    arm_line("without wax:", r.noWax);
    arm_line("with wax:   ", r.withWax);
    std::printf("extra ride-through from PCM: %.1f min\n",
                r.extraRideThroughS() / 60.0);
    std::printf("cluster: offered=%llu completed=%llu "
                "dropped=%llu crash-killed=%llu residual=%llu\n",
                static_cast<unsigned long long>(
                    r.cluster.offeredJobs),
                static_cast<unsigned long long>(
                    r.cluster.completedJobs),
                static_cast<unsigned long long>(
                    r.cluster.droppedJobs),
                static_cast<unsigned long long>(
                    r.cluster.crashKilledJobs),
                static_cast<unsigned long long>(
                    r.cluster.residualJobs));
    tts::guard::GuardCounters gc = r.noWax.guard;
    gc.merge(r.withWax.guard);
    std::printf("guard: audits=%llu sentinel-trips=%llu "
                "audit-trips=%llu retries=%llu fallbacks=%llu\n",
                static_cast<unsigned long long>(gc.audits),
                static_cast<unsigned long long>(gc.sentinelTrips),
                static_cast<unsigned long long>(gc.auditTrips),
                static_cast<unsigned long long>(gc.retries),
                static_cast<unsigned long long>(gc.fallbacks));
    return 0;
}

int
cmdFleet(const Options &o, const guard::CheckpointPolicy &policy)
{
    auto spec = platformOf(o);
    fleet::FleetConfig cfg;
    cfg.run = runConfigOf(o);
    cfg.run.serverCount = o.servers;
    cfg.durationS = units::days(o.days);
    cfg.mixedPlatforms = o.mixed;
    cfg.shardCount = o.shards;
    cfg.seed = o.seed;
    cfg.perturb.eventsPerServerDay = o.perturb_rate;

    fleet::FleetSim sim(spec, traceOf(o), cfg);
    if (!sim.run(policy))
        return reportPause(o, policy);
    auto r = sim.take();

    TimeSeries cooling_mw = r.coolingLoadW.scaled(1e-6);
    cooling_mw.setName("cooling_mw");
    TimeSeries it_mw = r.itPowerW.scaled(1e-6);
    it_mw.setName("it_mw");
    r.meltFraction.setName("melt_frac");
    emitSeries(o, {&cooling_mw, &it_mw, &r.meltFraction});
    std::printf("# platform=%s servers=%zu mixed=%d days=%.2f "
                "events=%zu materialized=%zu dedupe=%.1fx\n",
                spec.name.c_str(), r.serverCount, o.mixed ? 1 : 0,
                o.days, r.eventsApplied, r.materializedRows,
                r.dedupeFactor());
    std::printf("# peak_cooling=%.3fMW peak_it=%.3fMW "
                "cooling_energy=%.1fMWh digest=%016llx\n",
                r.peakCoolingW / 1e6, r.peakItPowerW / 1e6,
                r.coolingEnergyJ / 3.6e9,
                static_cast<unsigned long long>(r.stateDigest));
    const plant::PlantOptions plant_options = plantOptionsOf(o);
    if (plant_options.kind != plant::BackendKind::Crac) {
        plant::PlantScenario ps;
        ps.loadW = r.coolingLoadW;
        plant::PlantConfig pcfg;
        pcfg.options = plant_options;
        pcfg.recordSeries = false;
        auto pr = plant::runPlant(ps, pcfg);
        std::printf("# plant backend=%s electric=%.1fMWh "
                    "net_cost=%.0f$/yr reuse=%.0f$/run "
                    "retention=%.4f\n",
                    pr.backend.c_str(),
                    pr.electricEnergyJ / 3.6e9,
                    pr.yearlyNetCostUsd, pr.reuseCreditUsd,
                    pr.throughputRetention);
    }
    return 0;
}

int
cmdPlant(const Options &o, const guard::CheckpointPolicy &policy)
{
    auto spec = platformOf(o);
    core::RunConfig run = runConfigOf(o);

    plant::PlantScenario scenario;
    scenario.loadW = plant::clusterCoolingLoad(
        spec, run.waxConfig(), o.servers, traceOf(o));
    if (!o.faults_file.empty()) {
        std::ifstream in(o.faults_file);
        require(in.good(), "cannot open fault schedule '" +
                               o.faults_file + "'");
        scenario.faults = fault::FaultSchedule::read(in);
    }

    plant::PlantConfig cfg;
    cfg.options = plantOptionsOf(o);
    cfg.checkpoint = policy;

    if (o.backend == "all") {
        auto cmp = plant::compareBackends(
            scenario, cfg,
            {plant::BackendKind::Crac, plant::BackendKind::HotWater,
             plant::BackendKind::Economizer,
             plant::BackendKind::Mpc});
        AsciiTable t({"backend", "electric_kwh", "peak_kw",
                      "reuse_usd", "net_usd_yr", "retention"});
        for (const auto &arm : cmp.arms) {
            t.addRow({arm.backend,
                      formatFixed(arm.electricEnergyJ / 3.6e6, 1),
                      formatFixed(arm.peakElectricW / 1e3, 2),
                      formatFixed(arm.reuseCreditUsd, 2),
                      formatFixed(arm.yearlyNetCostUsd, 0),
                      formatFixed(arm.throughputRetention, 4)});
        }
        t.print(std::cout);
        std::printf("# platform=%s servers=%zu days=%.2f "
                    "mpc_vs_crac_saving=%.2f%%\n",
                    spec.name.c_str(), o.servers, o.days,
                    100.0 * cmp.mpcVsCracSaving);
        return 0;
    }

    auto r = plant::runPlant(scenario, cfg);
    if (!r.finished)
        return reportPause(o, policy);
    std::printf("platform=%s backend=%s servers=%zu days=%.2f "
                "faults=%zu\n",
                spec.name.c_str(), r.backend.c_str(), o.servers,
                o.days, r.faultEventsApplied);
    std::printf("electric energy: %.1f kWh (peak %.2f kW)\n",
                r.electricEnergyJ / 3.6e6, r.peakElectricW / 1e3);
    std::printf("energy cost:     %.2f $ (%.0f $/yr)\n",
                r.energyCostUsd, r.yearlyNetCostUsd);
    std::printf("reuse credit:    %.2f $   dvfs penalty: %.2f $\n",
                r.reuseCreditUsd, r.dvfsPenaltyUsd);
    std::printf("throughput retention: %.4f   unserved: %.1f kWh\n",
                r.throughputRetention, r.unservedJ / 3.6e6);
    return 0;
}

int
cmdReport(const Options &o)
{
    auto spec = platformOf(o);
    core::PlatformConfig opts;
    opts.cooling.run = runConfigOf(o);
    opts.cooling.run.meltTempC = 0.0;
    opts.optimizeMelt = false;
    auto study =
        core::runPlatformStudy(spec, traceOf(o), opts);
    core::writePlatformStudyReport(o.out_dir, study);
    std::printf("wrote fig11_cooling_load.csv, "
                "fig12_throughput.csv, wax_state.csv, summary.md "
                "to %s\n",
                o.out_dir.c_str());
    return 0;
}

int
cmdValidate(const Options &)
{
    auto r = core::runValidation();
    std::printf("wall power idle/load:    %.1f / %.1f W "
                "(paper: 90 / 185)\n",
                r.idleWallW, r.loadWallW);
    std::printf("package temp idle/load:  %.1f / %.1f C "
                "(paper: 42 / 76)\n",
                r.idlePackageC, r.loadPackageC);
    std::printf("steady-state mean diff:  %.2f C (paper: 0.22)\n",
                r.steadyStateMeanDiffC);
    std::printf("trace correlation:       %.4f\n",
                r.traceCorrelation);
    return 0;
}

} // namespace

namespace {

int
dispatch(const Options &o, const guard::CheckpointPolicy &policy)
{
    if (o.command == "trace")
        return cmdTrace(o);
    if (o.command == "cooling")
        return cmdCooling(o);
    if (o.command == "throughput")
        return cmdThroughput(o);
    if (o.command == "optimize")
        return cmdOptimize(o);
    if (o.command == "outage")
        return cmdOutage(o);
    if (o.command == "resilience")
        return cmdResilience(o, policy);
    if (o.command == "fleet")
        return cmdFleet(o, policy);
    if (o.command == "plant")
        return cmdPlant(o, policy);
    if (o.command == "report")
        return cmdReport(o);
    if (o.command == "validate")
        return cmdValidate(o);
    std::fprintf(stderr, "unknown command '%s'\n",
                 o.command.c_str());
    return 2;
}

/** Write the --metrics and --trace files the command collected. */
void
writeObsSinks(const Options &o)
{
    if (!o.metrics_file.empty())
        writeKvJsonFile(o.metrics_file, obs::registry().snapshot());
    if (!o.obs_trace_file.empty())
        obs::writeTraceFile(o.obs_trace_file,
                            o.trace_format == "chrome"
                                ? obs::TraceFormat::Chrome
                                : obs::TraceFormat::Jsonl);
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parse(argc, argv);
    // Either sink turns collection on for the whole command.
    const bool obs_requested =
        !o.metrics_file.empty() || !o.obs_trace_file.empty();
    if (obs_requested)
        obs::setEnabled(true);
    try {
        // Every command refuses a bad checkpoint policy, even those
        // that never reach guard::runResumable.
        const guard::CheckpointPolicy policy = checkpointPolicyOf(o);
        int rc = dispatch(o, policy);
        if (obs_requested) {
            writeObsSinks(o);
            std::cerr << "profile (wall time inside instrumented "
                         "phases):\n";
            obs::writeProfileTable(std::cerr);
        }
        return rc;
    } catch (const tts::Error &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

/**
 * @file
 * fleet_warehouse: the paper's 10 MW facility as `tts_sim fleet
 * --mixed` runs it - 40,320 servers over the 1U, 2U and OCP
 * archetypes, the 2-day synthetic Google trace, 60 s control steps,
 * 15 s thermal steps, 0.01 perturbation events per server-day, at
 * nproc threads.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hh"
#include "exec/parallel.hh"
#include "fleet/fleet.hh"
#include "server/server_spec.hh"
#include "util/units.hh"
#include "workload/google_trace.hh"

namespace perfbench {

namespace {

using namespace tts;

/** What a fleet run must reproduce. */
struct FleetOutcome
{
    std::uint64_t digest = 0;
    double peakCoolingW = 0.0;
    double coolingEnergyJ = 0.0;
    std::uint64_t serverSteps = 0;
    std::uint64_t rowSteps = 0;
    std::size_t materializedRows = 0;
    std::size_t eventsApplied = 0;
    double dedupe = 0.0;

    bool operator==(const FleetOutcome &) const = default;
};

/** Outputs pinned for kDefaultSeed (`tts_sim fleet --mixed`). */
struct FleetExpected
{
    std::uint64_t digest;
    double peakCoolingW;
    double coolingEnergyJ;
};

constexpr FleetExpected kPinned = {
    0x1b1a1b7f6008a75cULL,
    12361291.872691464,
    1663528615320.4468,
};

/** 40,320 servers x 2 days / 15 s thermal steps. */
constexpr std::uint64_t kServerSteps = 40320ULL * 11520ULL;

fleet::FleetConfig
fleetConfig(std::uint64_t seed)
{
    fleet::FleetConfig cfg;
    cfg.run.serverCount = 40320;
    cfg.durationS = units::days(2.0);
    cfg.controlIntervalS = 60.0;
    cfg.thermalStepS = 15.0;
    cfg.mixedPlatforms = true;
    cfg.seed = seed;
    cfg.perturb.eventsPerServerDay = 0.01;
    return cfg;
}

workload::WorkloadTrace
fleetTrace()
{
    workload::GoogleTraceParams p;
    p.durationS = units::days(2.0);
    return workload::makeGoogleTrace(p);
}

FleetOutcome
outcomeOf(const fleet::FleetResult &r)
{
    FleetOutcome o;
    o.digest = r.stateDigest;
    o.peakCoolingW = r.peakCoolingW;
    o.coolingEnergyJ = r.coolingEnergyJ;
    o.serverSteps = r.serverSteps;
    o.rowSteps = r.rowSteps;
    o.materializedRows = r.materializedRows;
    o.eventsApplied = r.eventsApplied;
    o.dedupe = r.dedupeFactor();
    return o;
}

/**
 * @return Empty when @p o is right for @p seed, else what is wrong.
 * The pinned seed must match bit for bit; any other seed must keep
 * the physics the perturbations cannot move far (peak and energy
 * within 1% of the pinned run) and the exact step accounting.
 */
std::string
checkFleet(const FleetOutcome &o, std::uint64_t seed,
           const FleetExpected &want)
{
    std::string bad;
    if (o.serverSteps != kServerSteps)
        bad += " server_steps";
    if (o.eventsApplied == 0 || o.materializedRows == 0 ||
        o.materializedRows > o.eventsApplied)
        bad += " rows/events";
    if (seed == kDefaultSeed) {
        if (o.digest != want.digest)
            bad += " digest";
        if (o.peakCoolingW != want.peakCoolingW)
            bad += " peak_cooling_w";
        if (o.coolingEnergyJ != want.coolingEnergyJ)
            bad += " cooling_energy_j";
    } else {
        if (!(std::fabs(o.peakCoolingW / want.peakCoolingW - 1.0) < 0.01))
            bad += " peak_cooling_w";
        if (!(std::fabs(o.coolingEnergyJ / want.coolingEnergyJ - 1.0) <
              0.01))
            bad += " cooling_energy_j";
    }
    return bad;
}

void
printOutcome(const char *tag, const FleetOutcome &o)
{
    std::printf("# %s digest=%016llx peak_cooling_w=%.17g "
                "cooling_energy_j=%.17g rows=%zu events=%zu\n",
                tag, static_cast<unsigned long long>(o.digest),
                o.peakCoolingW, o.coolingEnergyJ, o.materializedRows,
                o.eventsApplied);
}

/** One untraced run: construct, run to completion, take. */
struct TimedRun
{
    double setupS = 0.0;
    double wallS = 0.0;
    FleetOutcome outcome;
};

TimedRun
timedRun(std::uint64_t seed)
{
    const server::ServerSpec spec = server::rd330Spec();
    const fleet::FleetConfig cfg = fleetConfig(seed);
    TimedRun out;
    const auto t0 = Clock::now();
    const workload::WorkloadTrace trace = fleetTrace();
    fleet::FleetSim sim(spec, trace, cfg);
    const auto t1 = Clock::now();
    sim.run();
    const fleet::FleetResult r = sim.take();
    const auto t2 = Clock::now();
    out.setupS = seconds(t0, t1);
    out.wallS = seconds(t1, t2);
    out.outcome = outcomeOf(r);
    return out;
}

double
setupOnce(std::uint64_t seed)
{
    const auto t0 = Clock::now();
    const workload::WorkloadTrace trace = fleetTrace();
    fleet::FleetSim sim(server::rd330Spec(), trace, fleetConfig(seed));
    return seconds(t0, Clock::now());
}

} // namespace

void
runFleetWarehouse(const Options &o, Report &r)
{
    exec::setGlobalThreads(nproc());
    std::vector<double> setup, wall;
    FleetOutcome first;
    const auto start = Clock::now();
    while (wall.empty() || seconds(start, Clock::now()) < o.seconds) {
        // Set-up takes milliseconds and the host's speed drifts over
        // seconds, so sample it often and across the whole run.
        for (int i = 0; i < 25; ++i)
            setup.push_back(setupOnce(o.seed));
        const TimedRun run = timedRun(o.seed);
        setup.push_back(run.setupS);
        wall.push_back(run.wallS);
        std::printf("# run %zu wall_s=%.6f\n", wall.size(), run.wallS);
        if (wall.size() == 1) {
            first = run.outcome;
            printOutcome("fleet_warehouse", first);
            const std::string bad = checkFleet(first, o.seed, kPinned);
            r.check(bad.empty(), "fleet_warehouse output:" + bad);
        } else {
            r.check(run.outcome == first,
                    "fleet_warehouse repeat differs from first run");
        }
    }
    r.metric("setup_s", median(setup), "s", setup.size(),
             "trace synthesis + FleetSim construction");
    r.metric("wall_s", median(wall), "s", wall.size(),
             "FleetSim::run to completion + take()");
    r.metric("peak_rss_mb", peakRssMb(), "MiB");
    r.metric("fail_ratio",
             static_cast<double>(r.failed()) /
                 static_cast<double>(r.attempted()),
             "ratio", r.attempted(), "base=fleet runs");
}

void
runFleetLayers(const Options &o, Report &r, Tracer &t)
{
    const std::size_t np = nproc();

    // Thread curve: the same fleet at 1, 2 and 4 threads (never above
    // nproc); every output must be bit-identical across the three.
    std::vector<double> walls;
    FleetOutcome ref;
    for (std::size_t k : {1, 2, 4}) {
        const std::size_t threads = std::min(k, np);
        exec::setGlobalThreads(threads);
        const TimedRun run = timedRun(o.seed);
        walls.push_back(run.wallS);
        std::printf("# fleet_warehouse threads=%zu wall_s=%.6f\n",
                    threads, run.wallS);
        if (k == 1) {
            ref = run.outcome;
            const std::string bad = checkFleet(ref, o.seed, kPinned);
            r.check(bad.empty(), "fleet_warehouse output:" + bad);
        } else {
            r.check(run.outcome == ref,
                    "fleet_warehouse differs at " +
                        std::to_string(threads) + " threads");
        }
    }
    r.metric("exec.wall_1t_s.fleet_warehouse", walls[0], "s");
    r.metric("exec.speedup_2t.fleet_warehouse", walls[0] / walls[1], "x",
             1, "base=exec.wall_1t_s.fleet_warehouse");
    r.metric("exec.speedup_4t.fleet_warehouse", walls[0] / walls[2], "x",
             1, "base=exec.wall_1t_s.fleet_warehouse");

    // Traced run at the curve's top width: spans around the
    // constructor, every step() and take().
    const std::size_t top = std::min<std::size_t>(4, np);
    exec::setGlobalThreads(top);
    const server::ServerSpec spec = server::rd330Spec();
    const fleet::FleetConfig cfg = fleetConfig(o.seed);
    const std::int64_t root = t.begin("fleet_warehouse");
    std::int64_t sp = t.begin("workload.makeGoogleTrace", root);
    const workload::WorkloadTrace trace = fleetTrace();
    t.end(sp);
    sp = t.begin("fleet.construct", root);
    const auto c0 = Clock::now();
    fleet::FleetSim sim(spec, trace, cfg);
    const auto c1 = Clock::now();
    t.end(sp);
    std::vector<double> step_ms;
    const std::int64_t run_span = t.begin("fleet.run", root);
    const auto r0 = Clock::now();
    while (!sim.done()) {
        const auto s0 = Clock::now();
        const std::int64_t id = t.begin("fleet.step", run_span);
        sim.step();
        t.end(id);
        step_ms.push_back(millis(s0, Clock::now()));
    }
    t.end(run_span);
    sp = t.begin("fleet.take", root);
    const auto k0 = Clock::now();
    const fleet::FleetResult res = sim.take();
    const auto k1 = Clock::now();
    t.end(sp);
    t.end(root);
    const FleetOutcome traced = outcomeOf(res);
    r.check(traced == ref, "fleet_warehouse traced run differs");

    r.metric("fleet.construct_ms", millis(c0, c1), "ms");
    r.metric("fleet.steps", static_cast<double>(step_ms.size()), "count");
    r.metric("fleet.step_p50_ms", percentile(step_ms, 50.0), "ms",
             step_ms.size());
    r.metric("fleet.step_p99_ms", percentile(step_ms, 99.0), "ms",
             step_ms.size(),
             "beyond=" + std::to_string(beyond(step_ms, 99.0)));
    r.metric("fleet.take_ms", millis(k0, k1), "ms");
    r.metric("fleet.row_steps", static_cast<double>(traced.rowSteps),
             "count");
    r.metric("fleet.server_steps",
             static_cast<double>(traced.serverSteps), "count");
    r.metric("fleet.materialized_rows",
             static_cast<double>(traced.materializedRows), "count");
    r.metric("fleet.events_applied",
             static_cast<double>(traced.eventsApplied), "count");
    r.metric("fleet.dedupe_factor", traced.dedupe, "x", 1,
             "base=fleet.row_steps");

    // Kernel share: thermal row steps priced at the isolated probe's
    // mean cost, over the 1-thread wall.
    const double row_ns = (r.value("thermal.row_step_ns.1u") +
                           r.value("thermal.row_step_ns.2u") +
                           r.value("thermal.row_step_ns.ocp")) /
        3.0;
    r.metric("fleet.kernel_share_1t",
             static_cast<double>(traced.rowSteps) * row_ns * 1e-9 /
                 walls[0],
             "ratio", 1,
             "base=exec.wall_1t_s.fleet_warehouse");

    const double traced_wall = seconds(r0, k1);
    r.metric("trace.overhead.fleet_warehouse", traced_wall - walls[2],
             "s", 1,
             "traced run+take minus untraced at " +
                 std::to_string(top) + " threads");
}

bool
selftestFleet()
{
    exec::setGlobalThreads(nproc());
    const FleetOutcome got = timedRun(kDefaultSeed).outcome;
    bool ok = checkFleet(got, kDefaultSeed, kPinned).empty();
    std::printf("selftest fleet: pinned values %s\n",
                ok ? "pass" : "FAIL (expected pass)");
    FleetExpected wrong = kPinned;
    wrong.digest ^= 1;
    const bool d = !checkFleet(got, kDefaultSeed, wrong).empty();
    wrong = kPinned;
    wrong.peakCoolingW = std::nextafter(wrong.peakCoolingW, 0.0);
    const bool p = !checkFleet(got, kDefaultSeed, wrong).empty();
    wrong = kPinned;
    wrong.coolingEnergyJ = std::nextafter(wrong.coolingEnergyJ, 0.0);
    const bool e = !checkFleet(got, kDefaultSeed, wrong).empty();
    wrong = kPinned;
    wrong.peakCoolingW *= 1.02;
    const bool s = !checkFleet(got, kDefaultSeed + 1, wrong).empty();
    FleetOutcome other = got;
    other.coolingEnergyJ = std::nextafter(other.coolingEnergyJ, 0.0);
    const bool rep = !(other == got);
    std::printf("selftest fleet: wrong digest caught=%d, peak 1 ulp "
                "caught=%d, energy 1 ulp caught=%d, off-seed 2%% peak "
                "caught=%d, repeat 1 ulp caught=%d\n",
                d, p, e, s, rep);
    return ok && d && p && e && s && rep;
}

} // namespace perfbench

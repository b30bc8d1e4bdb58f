/**
 * @file
 * Performance gate for the SoA thermal kernel.
 *
 * Two checks, both on a resilience-style transient (two waxed
 * servers - one healthy, one with a failing fan bank - breathing a
 * drifting inlet, with per-step load changes and mid-run fault
 * events):
 *
 *  1. Speedup: the optimized kernel (airflow operating-point memo +
 *     SoA/CSR network caches) against the reference arithmetic
 *     (caches disabled, the pre-refactor per-call re-solve), single
 *     thread.  Fails below --min-speedup (default 2.0).
 *  2. Bit-identity: the two kernels' final PCM enthalpy states must
 *     match bit for bit, and a 16-server fleet stepped one server per
 *     exec::parallel_for_index task must produce bit-identical state
 *     at 1 and 8 threads.
 *
 * A third arm races the lane kernel: per platform, 16 paper-wax
 * servers stepped like fleet rows through the 2-day synthetic Google
 * trace (setLoad, the three read-outs, advance(60, 15)), once one by
 * one through advance() and once as two 8-lane advanceLanes() calls.
 * Every read-out and the end state (enthalpies, PCM latches, guard
 * counters) must match bit for bit (lanes_identical), and outside
 * --short the lanes must be at least kMinLanesSpeedup (1.5) times
 * faster per row step.  A row step is one 15 s RK4 step of one
 * server, the unit of perfbench's thermal.row_step_ns.
 *
 * Writes flat kv-json (ns/step, steps/s, speedups) to stdout and,
 * with --out=FILE, to the file CI tracks (BENCH_thermal.json).
 * --short shrinks the horizon for the ctest smoke run.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "exec/parallel.hh"
#include "server/server_model.hh"
#include "server/server_spec.hh"
#include "thermal/kernel_config.hh"
#include "util/cli.hh"
#include "util/error.hh"
#include "util/kv_json.hh"
#include "util/table.hh"
#include "util/units.hh"
#include "workload/google_trace.hh"

namespace {

using namespace tts;
using Clock = std::chrono::steady_clock;

/** Deterministic diurnal-ish utilization signal. */
double
loadAt(double t)
{
    double day = t / 86400.0;
    return 0.55 + 0.3 * std::sin(6.283185307179586 * day) +
           0.05 * std::sin(6.283185307179586 * 7.0 * day);
}

struct ArmResult
{
    double wall_s = 0.0;
    std::size_t steps = 0;
    std::vector<double> enthalpies;
};

/**
 * One single-threaded resilience-style arm under the given kernel
 * config.  Models are constructed after the config is installed so
 * they capture it.
 */
ArmResult
runArm(const thermal::KernelConfig &cfg, double horizon_s,
       double step_s)
{
    thermal::setDefaultKernelConfig(cfg);
    auto spec = server::rd330Spec();
    auto wax = server::WaxConfig::paper();
    server::ServerModel healthy(spec, wax);
    server::ServerModel fan_failed(spec, wax);
    const double f0 = spec.cpu.nominalFreqGHz;

    healthy.network().setInletTemp(25.0);
    fan_failed.network().setInletTemp(25.0);
    healthy.setLoad(loadAt(0.0));
    fan_failed.setLoad(loadAt(0.0));
    healthy.solveSteadyState();
    fan_failed.solveSteadyState();

    ArmResult out;
    auto t0 = Clock::now();
    for (double t = 0.0; t < horizon_s; t += step_s) {
        double u = loadAt(t);
        // Inlet drifts with the room heating up after a partial
        // plant trip one quarter in.
        double inlet = t < 0.25 * horizon_s
            ? 25.0
            : 25.0 + 6.0 * std::min(1.0, (t - 0.25 * horizon_s) /
                                             (0.25 * horizon_s));
        healthy.network().setInletTemp(inlet);
        fan_failed.network().setInletTemp(inlet);
        healthy.setLoad(u);
        // The fan-failed server pins to the DVFS floor after the
        // fan event 40 % in (a fault that must invalidate the
        // memoized airflow operating point that same step).
        if (t < 0.4 * horizon_s)
            fan_failed.setLoad(u);
        else
            fan_failed.setLoad(u, 0.6 * f0);
        healthy.advance(step_s, step_s);
        fan_failed.advance(step_s, step_s);
        ++out.steps;
    }
    out.wall_s = std::chrono::duration<double>(Clock::now() - t0)
                     .count();
    out.enthalpies = healthy.network().enthalpies();
    auto fan_h = fan_failed.network().enthalpies();
    out.enthalpies.insert(out.enthalpies.end(), fan_h.begin(),
                          fan_h.end());
    return out;
}

/** Fleet end state after stepping every server in parallel, one
 *  task per server, at the given width. */
std::vector<double>
runFleet(std::size_t threads, double horizon_s, double step_s)
{
    exec::setGlobalThreads(threads);
    auto spec = server::rd330Spec();
    auto wax = server::WaxConfig::paper();
    std::vector<server::ServerModel> fleet;
    fleet.reserve(16);
    for (std::size_t i = 0; i < 16; ++i) {
        fleet.emplace_back(spec, wax);
        fleet[i].network().setInletTemp(24.0 + 0.25 * i);
        fleet[i].setLoad(0.4 + 0.03 * i);
        fleet[i].solveSteadyState();
    }
    for (double t = 0.0; t < horizon_s; t += step_s) {
        for (std::size_t i = 0; i < fleet.size(); ++i)
            fleet[i].setLoad(loadAt(t + 3600.0 * i));
        exec::parallel_for_index(fleet.size(), [&](std::size_t i) {
            fleet[i].advance(step_s, step_s);
        });
    }
    std::vector<double> state;
    for (auto &s : fleet) {
        auto h = s.network().enthalpies();
        state.insert(state.end(), h.begin(), h.end());
    }
    return state;
}

/** The lane race's bar on scalar / lanes time per row step. */
constexpr double kMinLanesSpeedup = 1.5;

/** Servers per platform in the lane race: two full lane calls. */
constexpr std::size_t kLaneServers =
    2 * thermal::ServerThermalNetwork::kLanes;

/** One lane-race arm: wall time and every bit it produced. */
struct LaneArm
{
    double wall_s = 0.0;
    /** Read-outs in step order, then the end state of every server. */
    std::vector<double> bits;
};

/**
 * Step kLaneServers paper-wax servers of @p spec like fleet rows over
 * @p trace: each control step sets a server's load (its own offset on
 * the trace), takes its three read-outs and advances it 60 s in 15 s
 * steps, one by one or as lanes.
 */
LaneArm
runLaneArm(const server::ServerSpec &spec,
           const workload::WorkloadTrace &trace, double horizon_s,
           bool lanes)
{
    std::vector<std::unique_ptr<server::ServerModel>> rows;
    std::vector<thermal::ServerThermalNetwork *> nets;
    for (std::size_t i = 0; i < kLaneServers; ++i) {
        rows.push_back(std::make_unique<server::ServerModel>(
            spec, server::WaxConfig::paper()));
        rows[i]->network().setInletTemp(24.0 + 0.125 * i);
        rows[i]->setLoad(trace.totalAt(0.0));
        rows[i]->solveSteadyState();
        nets.push_back(&rows[i]->network());
    }
    const std::size_t steps =
        static_cast<std::size_t>(horizon_s / 60.0);
    LaneArm out;
    out.bits.reserve(steps * kLaneServers * 3);
    const std::span<thermal::ServerThermalNetwork *const> all(nets);
    const std::size_t w = thermal::ServerThermalNetwork::kLanes;
    auto t0 = Clock::now();
    for (std::size_t k = 0; k < steps; ++k) {
        const double u = trace.totalAt(60.0 * static_cast<double>(k));
        for (std::size_t i = 0; i < kLaneServers; ++i) {
            server::ServerModel &m = *rows[i];
            m.setLoad(std::clamp(u + 0.02 * static_cast<double>(i) - 0.15,
                                 0.0, 1.0));
            out.bits.push_back(m.coolingLoad());
            out.bits.push_back(m.wallPower());
            out.bits.push_back(m.waxMeltFraction());
        }
        if (lanes) {
            thermal::ServerThermalNetwork::advanceLanes(
                all.subspan(0, w), 60.0, 15.0);
            thermal::ServerThermalNetwork::advanceLanes(
                all.subspan(w), 60.0, 15.0);
        } else {
            for (auto &m : rows)
                m->advance(60.0, 15.0);
        }
    }
    out.wall_s = std::chrono::duration<double>(Clock::now() - t0)
                     .count();
    for (auto &m : rows) {
        const std::vector<double> &h = m->network().enthalpies();
        out.bits.insert(out.bits.end(), h.begin(), h.end());
        const pcm::PcmElement::ThermalState st = m->wax()->thermalState();
        out.bits.push_back(st.enthalpyJ);
        out.bits.push_back(st.freezingBranch);
        out.bits.push_back(st.wasMelted);
        out.bits.push_back(static_cast<double>(st.cycles));
        const guard::GuardCounters &c = m->network().guardCounters();
        for (std::uint64_t v : {c.advances, c.steps, c.audits,
                                c.sentinelTrips, c.auditTrips, c.retries,
                                c.fallbacks})
            out.bits.push_back(static_cast<double>(v));
        out.bits.push_back(c.worstResidualJ);
        out.bits.push_back(c.worstResidualTimeS);
    }
    return out;
}

/** @return True when @p a and @p b hold the same doubles, bit for bit. */
bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool
bitIdentical(const std::vector<double> &a,
             const std::vector<double> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i] != b[i])
            return false;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    double days = 2.0;
    double min_speedup = 2.0;
    bool short_run = false;
    std::string out_file;
    cli::Parser p("perf_thermal_kernel",
                  "SoA thermal kernel speedup + bit-identity gate.");
    p.addDouble("days", &days, "simulated horizon (days)");
    p.addDouble("min-speedup", &min_speedup,
                "fail below this optimized/reference speedup");
    p.addFlag("short", &short_run,
              "smoke horizon (~0.1 day) for ctest");
    p.addString("out", &out_file,
                "also write the kv-json here (BENCH_thermal.json)");
    switch (p.parse(argc - 1, argv + 1)) {
      case cli::Status::Help:
        std::fputs(p.helpText().c_str(), stdout);
        return 0;
      case cli::Status::Error:
        std::fprintf(stderr, "%s\n", p.error().c_str());
        return 2;
      case cli::Status::Ok:
        break;
    }
    if (short_run)
        days = 0.1;

    const double horizon_s = units::days(days);
    const double step_s = 10.0;

    // Single-thread arms: reference first, optimized second, from
    // identically-constructed models.
    auto reference =
        runArm(thermal::referenceKernelConfig(), horizon_s, step_s);
    auto optimized =
        runArm(thermal::KernelConfig{}, horizon_s, step_s);
    thermal::setDefaultKernelConfig(thermal::KernelConfig{});

    bool state_identical =
        bitIdentical(reference.enthalpies, optimized.enthalpies);
    double speedup = reference.wall_s / optimized.wall_s;
    double ref_ns = 1e9 * reference.wall_s /
                    static_cast<double>(reference.steps);
    double opt_ns = 1e9 * optimized.wall_s /
                    static_cast<double>(optimized.steps);

    // Fleet determinism across thread counts.
    double fleet_horizon = std::min(horizon_s, units::hours(6.0));
    auto fleet1 = runFleet(1, fleet_horizon, step_s);
    auto fleet8 = runFleet(8, fleet_horizon, step_s);
    bool fleet_identical = bitIdentical(fleet1, fleet8);

    // Lane race: scalar and lane arms alternate, three rounds per
    // platform, and each keeps its fastest round (the host drifts).
    workload::GoogleTraceParams trace_params;
    trace_params.durationS = horizon_s;
    const workload::WorkloadTrace trace =
        workload::makeGoogleTrace(trace_params);
    const char *const lane_tags[] = {"1u", "2u", "ocp"};
    const server::ServerSpec lane_specs[] = {
        server::rd330Spec(), server::x4470Spec(),
        server::openComputeSpec()};
    bool lanes_identical = true;
    double scalar_wall = 0.0, lanes_wall = 0.0;
    double scalar_ns[3], lanes_ns[3];
    const double row_steps = 4.0 * kLaneServers *
        std::floor(horizon_s / 60.0);
    for (std::size_t a = 0; a < 3; ++a) {
        double best_scalar = 1e300, best_lanes = 1e300;
        for (int round = 0; round < 3; ++round) {
            LaneArm sc = runLaneArm(lane_specs[a], trace, horizon_s, false);
            LaneArm ln = runLaneArm(lane_specs[a], trace, horizon_s, true);
            lanes_identical = lanes_identical && sameBits(sc.bits, ln.bits);
            best_scalar = std::min(best_scalar, sc.wall_s);
            best_lanes = std::min(best_lanes, ln.wall_s);
        }
        scalar_wall += best_scalar;
        lanes_wall += best_lanes;
        scalar_ns[a] = 1e9 * best_scalar / row_steps;
        lanes_ns[a] = 1e9 * best_lanes / row_steps;
    }
    const double lanes_speedup = scalar_wall / lanes_wall;
    const double scalar_row_ns = 1e9 * scalar_wall / (3.0 * row_steps);
    const double lanes_row_ns = 1e9 * lanes_wall / (3.0 * row_steps);

    std::cout << "=== SoA thermal kernel: " << days
              << "-day resilience-style transient ===\n\n";
    AsciiTable t({"kernel", "wall (s)", "ns/step", "steps/s"});
    t.addRow({"reference", formatFixed(reference.wall_s, 3),
              formatFixed(ref_ns, 0),
              formatFixed(reference.steps / reference.wall_s, 0)});
    t.addRow({"optimized", formatFixed(optimized.wall_s, 3),
              formatFixed(opt_ns, 0),
              formatFixed(optimized.steps / optimized.wall_s, 0)});
    t.print(std::cout);
    std::cout << "\nspeedup:                  "
              << formatFixed(speedup, 2) << "x (gate "
              << formatFixed(min_speedup, 2) << "x)\n"
              << "end state bit-identical:  "
              << (state_identical ? "yes" : "NO") << "\n"
              << "fleet 1 vs 8 threads:     "
              << (fleet_identical ? "bit-identical" : "DIFFERS")
              << "\n\n";

    std::cout << "=== Lane kernel: " << kLaneServers
              << " paper-wax rows per platform, ns per row step ===\n\n";
    AsciiTable lt({"platform", "scalar", "lanes", "speedup"});
    for (std::size_t a = 0; a < 3; ++a)
        lt.addRow({lane_tags[a], formatFixed(scalar_ns[a], 0),
                   formatFixed(lanes_ns[a], 0),
                   formatFixed(scalar_ns[a] / lanes_ns[a], 2) + "x"});
    lt.print(std::cout);
    std::cout << "\nlanes speedup:            "
              << formatFixed(lanes_speedup, 2) << "x (gate "
              << (short_run ? std::string("off with --short")
                            : formatFixed(kMinLanesSpeedup, 2) + "x")
              << ")\n"
              << "lanes bit-identical:      "
              << (lanes_identical ? "yes" : "NO") << "\n\n";

    std::map<std::string, double> json{
        {"days", days},
        {"steps", static_cast<double>(optimized.steps)},
        {"reference_ns_per_step", ref_ns},
        {"optimized_ns_per_step", opt_ns},
        {"optimized_steps_per_s",
         optimized.steps / optimized.wall_s},
        {"speedup", speedup},
        {"state_identical", state_identical ? 1.0 : 0.0},
        {"fleet_identical", fleet_identical ? 1.0 : 0.0},
        {"scalar_ns_per_row_step", scalar_row_ns},
        {"lanes_ns_per_row_step", lanes_row_ns},
        {"lanes_speedup", lanes_speedup},
        {"lanes_identical", lanes_identical ? 1.0 : 0.0},
    };
    std::cout << writeKvJson(json);
    if (!out_file.empty())
        writeKvJsonFile(out_file, json);

    if (!state_identical || !fleet_identical || !lanes_identical)
        return 1;
    if (!short_run && lanes_speedup < kMinLanesSpeedup)
        return 1;
    return speedup >= min_speedup ? 0 : 1;
}

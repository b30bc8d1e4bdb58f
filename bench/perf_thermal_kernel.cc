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
 * Writes flat kv-json (ns/step, steps/s, speedup) to stdout and,
 * with --out=FILE, to the file CI tracks (BENCH_thermal.json).
 * --short shrinks the horizon for the ctest smoke run.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
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
    };
    std::cout << writeKvJson(json);
    if (!out_file.empty())
        writeKvJsonFile(out_file, json);

    if (!state_identical || !fleet_identical)
        return 1;
    return speedup >= min_speedup ? 0 : 1;
}

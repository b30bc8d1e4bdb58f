/**
 * @file
 * Isolated layer probes that need no serving stack: the thermal row
 * step, an empty exec region, and trace synthesis.  Each calls one
 * public function on the inputs fleet_warehouse itself uses.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hh"
#include "core/run_config.hh"
#include "core/thermal_time_shifting.hh"
#include "exec/parallel.hh"
#include "server/server_model.hh"
#include "util/units.hh"
#include "workload/google_trace.hh"

namespace perfbench {

using namespace tts;

void
runProbes(Report &r, Tracer &t)
{
    workload::GoogleTraceParams tp;
    tp.durationS = units::days(2.0);

    std::vector<double> trace_ms;
    workload::WorkloadTrace trace;
    for (int i = 0; i < 20; ++i) {
        const std::int64_t sp = t.begin("workload.makeGoogleTrace");
        const auto t0 = Clock::now();
        trace = workload::makeGoogleTrace(tp);
        trace_ms.push_back(millis(t0, Clock::now()));
        t.end(sp);
    }
    r.metric("workload.trace_ms.2d", median(trace_ms), "ms",
             trace_ms.size(), "makeGoogleTrace at 2 days");

    // One paper-wax server per archetype, stepped like a fleet row:
    // the 2-day trace's load at each 60 s control step, advanced in
    // 15 s thermal steps.
    const char *const tags[] = {"1u", "2u", "ocp"};
    const std::vector<server::ServerSpec> specs = core::paperPlatforms();
    const server::WaxConfig wax = core::RunConfig{}.waxConfig();
    for (std::size_t a = 0; a < specs.size(); ++a) {
        server::ServerModel m(specs[a], wax);
        const std::size_t steps = 2880;
        const std::int64_t sp =
            t.begin(std::string("thermal.ServerModel.advance.") + tags[a]);
        const auto t0 = Clock::now();
        for (std::size_t k = 0; k < steps; ++k) {
            const double u = std::clamp(
                trace.total().at(static_cast<double>(k) * 60.0), 0.0, 1.0);
            m.setLoad(u);
            m.advance(60.0, 15.0);
        }
        const double ns = std::chrono::duration<double, std::nano>(
                              Clock::now() - t0)
                              .count();
        t.end(sp);
        r.metric(std::string("thermal.row_step_ns.") + tags[a],
                 ns / static_cast<double>(steps * 4), "ns", steps * 4,
                 "ServerModel::advance, 15 s steps, incl. setLoad");
        r.metric(std::string("thermal.nodes.") + tags[a],
                 static_cast<double>(m.network().nodeCount()), "count");
    }

    // An empty region of the fleet's default 8 shards at nproc threads.
    exec::setGlobalThreads(nproc());
    const int regions = 500;
    const std::int64_t sp = t.begin("exec.parallel_for_index");
    const auto t0 = Clock::now();
    for (int i = 0; i < regions; ++i)
        exec::parallel_for_index(8, [](std::size_t) {});
    const double us = millis(t0, Clock::now()) * 1e3 / regions;
    t.end(sp);
    r.metric("exec.region_us", us, "us", regions,
             "empty parallel_for_index(8) at " + std::to_string(nproc()) +
                 " threads");
}

} // namespace perfbench

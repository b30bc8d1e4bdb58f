/**
 * @file
 * perfbench - the repository benchmark binary.  run.py builds it and
 * drives it; see NOTES.md for what each workload measures and why.
 *
 *   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
 *             --hit-limit-ms=X --miss-limit-ms=Y [--out=DIR]
 *   perfbench --selftest
 *
 * An untraced run (--trace=0) runs the named workload and prints its
 * end-to-end metrics.  The traced run (--trace=1) prints every
 * per-layer metric: the isolated probes, the 1/2/4-thread curve and a
 * span-traced pass of all three workloads, whichever one is named,
 * because several layer metrics are defined on each of them.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hh"

namespace {

using namespace perfbench;

bool
flag(const std::string &arg, const char *name, std::string *value)
{
    const std::string prefix = std::string("--") + name + "=";
    if (arg.rfind(prefix, 0) != 0)
        return false;
    *value = arg.substr(prefix.size());
    return true;
}

int
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload=NAME "
                 "--seed=N --seconds=S --trace=0|1 --hit-limit-ms=X "
                 "--miss-limit-ms=Y [--out=DIR] | --selftest\n",
                 why.c_str());
    return 2;
}

int
selftest()
{
    const bool fleet = selftestFleet();
    const bool opt = selftestOpt();
    const bool serve = selftestServe();
    std::printf("selftest %s\n", fleet && opt && serve ? "PASS" : "FAIL");
    return fleet && opt && serve ? 0 : 1;
}

void
traced(const Options &o, Report &r)
{
    Tracer t(true);
    runProbes(r, t);
    runFleetLayers(o, r, t);
    runOptLayers(r, t);
    runServeLayers(o, r, t);
    const std::string path = o.outDir + "/spans-" + o.workload + "-" +
                             std::to_string(o.seed) + ".json";
    t.write(path);
    std::printf("# %zu spans written to %s (Chrome trace_event)\n",
                t.size(), path.c_str());
    for (const auto &[name, tot] : t.totals())
        std::printf("span %s count=%zu total_ms=%.3f self_ms=%.3f\n",
                    name.c_str(), tot.count, tot.totalNs / 1e6,
                    tot.selfNs / 1e6);
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    std::string v;
    bool have_trace = false, have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--selftest")
            return selftest();
        if (flag(a, "workload", &v)) {
            o.workload = v;
        } else if (flag(a, "seed", &v)) {
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
            have_seed = true;
        } else if (flag(a, "seconds", &v)) {
            o.seconds = std::atof(v.c_str());
        } else if (flag(a, "trace", &v)) {
            o.trace = v == "1";
            have_trace = v == "0" || v == "1";
        } else if (flag(a, "out", &v)) {
            o.outDir = v;
        } else if (flag(a, "hit-limit-ms", &v)) {
            o.hitLimitMs = std::atof(v.c_str());
        } else if (flag(a, "miss-limit-ms", &v)) {
            o.missLimitMs = std::atof(v.c_str());
        } else {
            return usage("unknown argument " + a);
        }
    }
    if (o.workload != "fleet_warehouse" && o.workload != "opt_search" &&
        o.workload != "serve_mixed")
        return usage("unknown workload '" + o.workload + "'");
    if (!have_seed || !have_trace || !(o.seconds > 0.0))
        return usage("need --seed, --trace=0|1 and --seconds > 0");
    if (!(o.hitLimitMs > 0.0) || !(o.missLimitMs > 0.0))
        return usage("need --hit-limit-ms and --miss-limit-ms > 0");

    try {
        std::filesystem::create_directories(o.outDir);
        Report r;
        std::printf("# perfbench workload=%s seed=%llu seconds=%g "
                    "trace=%d nproc=%zu\n",
                    o.workload.c_str(),
                    static_cast<unsigned long long>(o.seed), o.seconds,
                    o.trace ? 1 : 0, nproc());
        if (o.trace)
            traced(o, r);
        else if (o.workload == "fleet_warehouse")
            runFleetWarehouse(o, r);
        else if (o.workload == "opt_search")
            runOptSearch(o, r);
        else
            runServeMixed(o, r);
        r.finish();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}

/**
 * @file
 * Extension: cost of the numerical guard.
 *
 * The guarded advance audits energy conservation after every
 * interval by integrating an extra accumulator entry alongside the
 * node enthalpies.  That buys NaN containment and step-retry for an
 * O(1/n) marginal cost per node - this bench pins the actual number
 * on a full wax-bearing server transient (budget: < 2 % overhead),
 * and times the checkpoint save/parse round trip that the resumable
 * studies lean on.
 */

#include <chrono>
#include <iostream>
#include <string>

#include "guard/checkpoint.hh"
#include "guard/numerics.hh"
#include "server/server_model.hh"
#include "server/server_spec.hh"
#include "util/table.hh"
#include "workload/dcsim.hh"

namespace {

using Clock = std::chrono::steady_clock;

double
millisSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     t0)
        .count();
}

/** One diurnal-ish transient: 4 h of load swings at 1 s steps. */
double
runTransient(tts::server::ServerModel &m)
{
    Clock::time_point t0 = Clock::now();
    for (int minute = 0; minute < 240; ++minute) {
        double phase = static_cast<double>(minute % 60) / 60.0;
        m.setLoad(0.35 + 0.55 * phase);
        m.advance(60.0, 1.0);
    }
    return millisSince(t0);
}

double
timeArm(bool guarded)
{
    tts::guard::GuardConfig cfg;  // Defaults.
    cfg.enabled = guarded;
    tts::server::ServerModel m(tts::server::rd330Spec(),
                               tts::server::WaxConfig::paper());
    m.network().setGuardConfig(cfg);
    m.setLoad(0.5);
    m.solveSteadyState();
    runTransient(m);  // Warm-up pass (page in, branch-train).
    double best = runTransient(m);
    for (int rep = 1; rep < 3; ++rep)
        best = std::min(best, runTransient(m));
    return best;
}

} // namespace

int
main()
{
    using namespace tts;

    std::cout << "=== Extension: numerical-guard overhead "
                 "(1U + wax, 4 h transient, 1 s steps, best of "
                 "3) ===\n\n";

    double off_ms = timeArm(false);
    double on_ms = timeArm(true);
    double overhead = (on_ms - off_ms) / off_ms * 100.0;

    AsciiTable t({"Solve", "wall (ms)", "overhead"});
    t.addRow({"unguarded", formatFixed(off_ms, 1), "-"});
    t.addRow({"guarded (audit every interval)", formatFixed(on_ms, 1),
              formatFixed(overhead, 2) + " %"});
    t.print(std::cout);

    // Guard bookkeeping for the guarded arm of one transient.
    server::ServerModel m(server::rd330Spec(),
                          server::WaxConfig::paper());
    m.setLoad(0.5);
    m.solveSteadyState();
    runTransient(m);
    const guard::GuardCounters &c = m.network().guardCounters();
    std::cout << "\nguarded arm: " << c.advances << " advances, "
              << c.audits << " audits, " << c.steps << " steps, "
              << c.sentinelTrips + c.auditTrips << " trips, worst "
              << "residual " << formatFixed(c.worstResidualJ, 6)
              << " J\n";

    // Checkpoint cost: serialize + re-parse a mid-run cluster engine.
    workload::DcSimConfig cfg;
    cfg.serverCount = 64;
    workload::WorkloadTrace trace;
    trace.append(0.0, {0.25, 0.25, 0.25});
    trace.append(3600.0, {0.25, 0.25, 0.25});
    workload::ClusterSimEngine engine(cfg, trace, nullptr);
    engine.runUntil(1800.0);

    Clock::time_point t0 = Clock::now();
    guard::CheckpointWriter w;
    engine.save(w);
    std::string doc = w.finish();
    double save_ms = millisSince(t0);

    workload::ClusterSimEngine restored(cfg, trace, nullptr);
    t0 = Clock::now();
    guard::CheckpointReader r(doc, "<bench>");
    restored.restore(r);
    double restore_ms = millisSince(t0);

    std::cout << "\ncheckpoint (64-server cluster, mid-run): "
              << doc.size() / 1024 << " KiB, save "
              << formatFixed(save_ms, 2) << " ms, restore "
              << formatFixed(restore_ms, 2) << " ms\n";
    return 0;
}

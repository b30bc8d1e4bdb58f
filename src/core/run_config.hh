/**
 * @file
 * Unified run configuration shared by every study.
 *
 * Four subsystem PRs accreted near-identical per-study option
 * structs (server count, melting temperature, utilization, obs
 * sinks, checkpoint policy duplicated in each).  RunConfig is the
 * single home for those shared knobs; the per-study config structs
 * embed one and keep only the fields that are genuinely their own
 * (room model, governor cadence, fault cluster sample, ...).
 *
 * StudyContext bundles the remaining per-run inputs - platform spec,
 * workload trace, RunConfig - plus the obs sink lifecycle, so a tool
 * or bench sets up a run in one place:
 *
 * @code
 *   core::RunConfig run;
 *   run.meltTempC = 45.0;
 *   core::StudyContext ctx(server::rd330Spec(), trace, run);
 *   ctx.beginObs();
 *   auto r = core::runCoolingStudy(ctx.spec(), ctx.trace(), {run});
 *   ctx.finishObs();
 * @endcode
 */

#ifndef TTS_CORE_RUN_CONFIG_HH
#define TTS_CORE_RUN_CONFIG_HH

#include <cstddef>
#include <string>

#include "guard/resume.hh"
#include "plant/options.hh"
#include "server/server_model.hh"
#include "server/server_spec.hh"
#include "workload/trace.hh"

namespace tts {
namespace core {

/** Observability output sinks; empty paths disable collection. */
struct ObsSinks
{
    /** Metrics registry dump (kv-json) written after the run. */
    std::string metricsPath;
    /** Structured event trace written after the run. */
    std::string tracePath;
    /** Trace format: "jsonl" or "chrome". */
    std::string traceFormat = "jsonl";

    /** @return True when any sink is configured. */
    bool any() const
    {
        return !metricsPath.empty() || !tracePath.empty();
    }
};

/** The shared study knobs.  Per-study configs embed one as `run`. */
struct RunConfig
{
    /** Cluster / room population. */
    std::size_t serverCount = 1008;
    /** Utilization where the study holds one (outage ride-through). */
    double utilization = 0.75;
    /** Melting temperature (C); <= 0 uses the platform default. */
    double meltTempC = 0.0;
    /** Melt window width (C); see server::WaxConfig::meltWindowC. */
    double meltWindowC = 0.5;
    /** Wax charge per server (liters); <= 0 uses the platform
     *  default deployment (the paper's liters). */
    double waxLiters = 0.0;
    /** Observability sinks (tools; studies never read these). */
    ObsSinks obs;
    /** Checkpoint policy (fleet and resilience runners; others
     *  ignore it). */
    guard::CheckpointPolicy checkpoint;
    /** Cooling-plant backend selection (default: CRAC adapter,
     *  which prices exactly like datacenter::CoolingSystem). */
    plant::PlantOptions plant;

    /** @return meltTempC resolved against the platform default. */
    double meltTempFor(const server::ServerSpec &spec) const
    {
        return meltTempC > 0.0 ? meltTempC : spec.defaultMeltTempC;
    }

    /**
     * @return The paper's wax deployment at this config's melting
     * point and window.  When meltTempC <= 0 the melting point is
     * left at the WaxConfig default (resolved to the platform
     * default by ServerModel).
     */
    server::WaxConfig waxConfig() const;
};

/**
 * Platform + trace + RunConfig for one run, with the obs sink
 * lifecycle the tools previously hand-rolled.
 */
class StudyContext
{
  public:
    StudyContext(server::ServerSpec spec,
                 workload::WorkloadTrace trace,
                 RunConfig run = RunConfig{});

    /** @return The platform. */
    const server::ServerSpec &spec() const { return spec_; }
    /** @return The workload trace. */
    const workload::WorkloadTrace &trace() const { return trace_; }
    /** @return The shared run knobs. */
    const RunConfig &run() const { return run_; }
    /** @return Mutable run knobs (setup phase). */
    RunConfig &run() { return run_; }

    /** @return run().waxConfig(). */
    server::WaxConfig waxConfig() const { return run_.waxConfig(); }

    /** @return True when an obs sink is configured. */
    bool obsRequested() const { return run_.obs.any(); }

    /**
     * Enable obs collection when a sink is configured (no-op
     * otherwise).  Call before the study.
     */
    void beginObs() const;

    /**
     * Write the configured metrics/trace files and disable
     * collection.  Call after the study; no-op when beginObs() did
     * nothing.
     *
     * @throws tts::Error on an unwritable sink path or a bad
     *         traceFormat value.
     */
    void finishObs() const;

  private:
    server::ServerSpec spec_;
    workload::WorkloadTrace trace_;
    RunConfig run_;
};

} // namespace core
} // namespace tts

#endif // TTS_CORE_RUN_CONFIG_HH

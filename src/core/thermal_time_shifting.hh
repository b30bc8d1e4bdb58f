/**
 * @file
 * Public facade of the thermal-time-shifting library.
 *
 * Pulls the whole study pipeline together: pick a platform, generate
 * or load a trace, optimize the wax, run the cooling-load and
 * throughput studies, and derive the deployment economics.  The
 * individual headers under core/, server/, datacenter/, pcm/,
 * thermal/, workload/, and tco/ remain the fine-grained API.
 *
 * Quickstart:
 * @code
 *   using namespace tts;
 *   auto spec = server::rd330Spec();
 *   auto trace = workload::makeGoogleTrace();
 *   auto study = core::runCoolingStudy(spec, trace);
 *   std::cout << "peak cooling reduction: "
 *             << 100.0 * study.peakReduction() << "%\n";
 * @endcode
 */

#ifndef TTS_CORE_THERMAL_TIME_SHIFTING_HH
#define TTS_CORE_THERMAL_TIME_SHIFTING_HH

#include <string>
#include <vector>

#include "core/capacity_planner.hh"
#include "core/cooling_study.hh"
#include "core/melting_optimizer.hh"
#include "core/throughput_study.hh"
#include "core/validation.hh"
#include "server/server_spec.hh"
#include "workload/google_trace.hh"

namespace tts {
namespace core {

/** Library version. */
const char *version();

/** The paper's three scale-out platforms, in Figure 5 order. */
std::vector<server::ServerSpec> paperPlatforms();

/** Everything Section 5 reports for one platform, in one call. */
struct PlatformStudy
{
    server::ServerSpec spec;
    /** Optimized melting temperature (C). */
    double meltTempC = 0.0;
    /** Section 5.1 cooling study at the optimized temperature. */
    CoolingStudyResult cooling;
    /** Section 5.1 deployment economics. */
    CapacityPlan plan;
    /** Section 5.2 constrained-throughput study. */
    ThroughputStudyResult throughput;
    /** Section 5.2 TCO efficiency improvement (fraction). */
    double tcoEfficiencyGain = 0.0;
};

/** Configuration for runPlatformStudy. */
struct PlatformConfig
{
    /** Optimize the melting temperature (else platform default). */
    bool optimizeMelt = true;
    /** Melt sweep granularity (C). */
    double meltStepC = 1.0;
    /** Cooling-plant oversubscription for the throughput study;
     *  <= 0 uses the calibrated per-platform value. */
    double capacityFraction = 0.0;
    /** Study/cluster configuration shared by the runs. */
    CoolingConfig cooling;
};

/**
 * Run the full Section 5 pipeline for one platform.
 *
 * @param spec    Platform.
 * @param trace   Load trace (Figure 10 style).
 * @param options Pipeline options.
 */
PlatformStudy runPlatformStudy(
    const server::ServerSpec &spec,
    const workload::WorkloadTrace &trace,
    const PlatformConfig &options = PlatformConfig{});

} // namespace core
} // namespace tts

#endif // TTS_CORE_THERMAL_TIME_SHIFTING_HH

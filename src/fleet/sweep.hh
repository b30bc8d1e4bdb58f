/**
 * @file
 * Batched multi-configuration fleet sweeps.
 *
 * The serving layer's miss batcher collects concurrent fleet-backed
 * cache misses and wants them executed as *one* dispatch instead of
 * N independent submissions; this is that entry point.  Each job is
 * an independent (spec, trace, config) fleet run; the batch fans out
 * over the deterministic exec pool into index-keyed slots, so
 * results[i] is exactly what a FleetSim would have produced for
 * jobs[i] run alone - the bit-identity contract the batcher's
 * split-back-out step relies on.  (FleetSim's own sharded stepping
 * nests inside the pool the same way the opt engine's candidate
 * batches always have.)
 */

#ifndef TTS_FLEET_SWEEP_HH
#define TTS_FLEET_SWEEP_HH

#include <vector>

#include "fleet/fleet.hh"
#include "server/server_spec.hh"
#include "workload/trace.hh"

namespace tts {
namespace fleet {

/** One independent fleet run in a sweep. */
struct SweepJob
{
    server::ServerSpec spec;
    workload::WorkloadTrace trace;
    FleetConfig cfg;
};

/**
 * Run every job, fanning out on the global exec pool.
 *
 * @return One FleetResult per job, in job order, each bit-identical
 *         to the same job run alone at any thread count.
 */
std::vector<FleetResult>
runFleetSweep(const std::vector<SweepJob> &jobs);

} // namespace fleet
} // namespace tts

#endif // TTS_FLEET_SWEEP_HH

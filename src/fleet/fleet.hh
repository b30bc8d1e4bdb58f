/**
 * @file
 * tts::fleet - warehouse-scale sharded fleet simulation.
 *
 * The paper's headline numbers are for a 10 MW facility (~40k
 * servers); simulating every server naively is 40,000 independent
 * thermal transients per step.  FleetSim scales by exploiting what a
 * warehouse fleet actually looks like: servers group into a handful
 * of platform *archetypes* (spec + wax deployment + shared input
 * stream), and within an archetype every unperturbed server's
 * trajectory is bit-identical.  Each archetype therefore advances one
 * baseline row (see fleet/arena.hh) that all unperturbed rows alias
 * - exact deduplication, not sampling - while perturbed servers
 * (utilization offsets, inlet drift, fan failures; see
 * fleet/perturbation.hh) lazily materialize private rows the moment
 * they diverge.
 *
 * Each control step opens one shard region on the deterministic
 * exec::ThreadPool: a shard sets the load of every materialized row
 * in its server range, stores the row's read-out (cooling, wall
 * power, melt fraction) and advances it.  The arena baselines step
 * serially before the region, and a serial fold then sums the stored
 * read-outs.  All randomness is drawn from per-server Rng::forStream
 * sub-streams before stepping begins and the fold runs in canonical
 * (arena, server) order, so the entire run - series, peaks, digests
 * - is bit-identical at any thread count and any shard width.  Long
 * runs checkpoint through the CRC-32 guard writer (arena baselines +
 * materialized rows + event cursor) and resume bit-identically, and
 * the whole thing is observable through tts::obs (fleet.* metrics,
 * perturbation trace events, fleet.step.* profile scopes).
 */

#ifndef TTS_FLEET_FLEET_HH
#define TTS_FLEET_FLEET_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/run_config.hh"
#include "fleet/arena.hh"
#include "fleet/perturbation.hh"
#include "guard/resume.hh"
#include "server/server_spec.hh"
#include "util/time_series.hh"
#include "workload/placement.hh"
#include "workload/trace.hh"

namespace tts {
namespace fleet {

/**
 * @return The servers each of @p slots platform slots gets out of
 * @p total: an even split, the remainder one each to the first
 * slots.  FleetSim lays its arenas out this way, and the opt engine
 * weights per-archetype wax cost by it.
 */
std::vector<std::size_t> platformCounts(std::size_t total,
                                        std::size_t slots);

/** Fleet simulation configuration. */
struct FleetConfig
{
    /**
     * Shared model inputs: serverCount is the fleet population,
     * utilization is the flat load when no trace is given, and
     * meltTempC / meltWindowC / waxLiters pick the wax deployment.
     */
    core::RunConfig run;
    /** Simulated horizon (s). */
    double durationS = 2.0 * 86400.0;
    /** Control interval: load updates + aggregation (s). */
    double controlIntervalS = 60.0;
    /** Inner thermal integration step (s). */
    double thermalStepS = 15.0;
    /**
     * Shards of each step's region (each shard owns a contiguous
     * server range and steps the materialized rows in it); 0 picks
     * the default of 8.  Results are bit-identical at any width.
     */
    std::size_t shardCount = 0;
    /** Fleet seed: perturbation schedule sub-streams key off it. */
    std::uint64_t seed = 0x715f1ee7ULL;
    /** Perturbation rates/magnitudes (0 rate = fully deduped). */
    PerturbationModel perturb;
    /**
     * Extra hand-written perturbation events appended to the
     * generated schedule (tests, scenario drivers); events must
     * target servers inside the fleet.
     */
    std::vector<PerturbEvent> extraEvents;
    /**
     * Archetype + perturbation dedupe (the point of this module).
     * False materializes every row up front - the naive per-server
     * reference path the perf gate compares against; only sensible
     * for small fleets.
     */
    bool dedupe = true;
    /**
     * Split the fleet across the three platform archetypes (1U
     * RD330, 2U X4470, Open Compute) instead of a single-platform
     * fleet; counts split as evenly as possible.
     */
    bool mixedPlatforms = false;
    /**
     * Per-archetype wax overrides, indexed by platform slot (the
     * single platform, or {1U, 2U, OCP} under mixedPlatforms).  When
     * non-empty it must have one entry per slot and replaces the
     * run.waxConfig() deployment for every arena - this is the knob
     * tts::opt turns for per-archetype wax mass / melt / box count
     * candidates.
     */
    std::vector<server::WaxConfig> archetypeWax;
    /**
     * Job-placement policy: skews per-archetype utilization by
     * workload::placementWeights while conserving total fleet load.
     * Uniform reproduces the paper (every archetype at the fleet
     * utilization).
     */
    workload::PlacementPolicy placement =
        workload::PlacementPolicy::Uniform;
    /**
     * Record the per-step cooling/IT/melt series.  The opt oracle
     * turns this off: peaks, energy, and digests are still tracked,
     * but thousands of candidate evaluations skip the per-step
     * appends and carry no series memory.
     */
    bool recordSeries = true;
};

/** Aggregated outputs of a fleet run. */
struct FleetResult
{
    /** Fleet-wide heat rejected to the room (W). */
    TimeSeries coolingLoadW;
    /** Fleet-wide wall power (W). */
    TimeSeries itPowerW;
    /** Mean wax melt fraction over wax-bearing servers. */
    TimeSeries meltFraction;
    /** Peak of coolingLoadW (W). */
    double peakCoolingW = 0.0;
    /** Peak of itPowerW (W). */
    double peakItPowerW = 0.0;
    /** Integrated cooling energy over the horizon (J). */
    double coolingEnergyJ = 0.0;
    /** Logical server thermal steps (population x inner steps). */
    std::uint64_t serverSteps = 0;
    /** Thermal steps actually integrated (baselines + rows). */
    std::uint64_t rowSteps = 0;
    /** Materialized rows at the end of the run. */
    std::size_t materializedRows = 0;
    /** Perturbation events applied. */
    std::size_t eventsApplied = 0;
    /** Canonical end-state digest over every server (bit-identity). */
    std::uint64_t stateDigest = 0;
    /** Fleet population. */
    std::size_t serverCount = 0;

    /**
     * @return Dedupe leverage: logical server steps per actually
     * integrated step (1.0 when every row is materialized).
     */
    double dedupeFactor() const
    {
        return rowSteps == 0
            ? 1.0
            : static_cast<double>(serverSteps) /
                  static_cast<double>(rowSteps);
    }
};

/**
 * The sharded fleet simulator: a guard::Resumable step machine.
 * Construct, then either run(policy) to completion / pause, or drive
 * step() directly (tests).
 */
class FleetSim : public guard::Resumable
{
  public:
    /**
     * @param spec  Platform of every arena (ignored per-arena when
     *              cfg.mixedPlatforms is set).
     * @param trace Normalized load trace driving utilization; an
     *              empty trace holds cfg.run.utilization flat.
     * @param cfg   Fleet configuration (copied).
     */
    FleetSim(const server::ServerSpec &spec,
             const workload::WorkloadTrace &trace,
             const FleetConfig &cfg);

    FleetSim(const FleetSim &) = delete;
    FleetSim &operator=(const FleetSim &) = delete;

    /**
     * Run to completion under guard::runResumable, restoring from
     * policy.path first when that file exists (it must describe the
     * same fleet configuration).  Writes a checkpoint every
     * policy.checkpointEveryS simulated seconds when policy.path is
     * set.
     *
     * @return True when the run finished; false when paused by
     *         policy.stopAfterS (state saved to policy.path).
     * @throws FatalError when policy.path is set and
     *         policy.checkpointEveryS <= 0.
     */
    bool run(const guard::CheckpointPolicy &policy =
                 guard::CheckpointPolicy{});

    /** Extract the result.  Call once, after the run finished. */
    FleetResult take();

    /** @return True when the horizon has been reached. */
    bool done() const override { return done_; }

    /** Advance one control step.  @return Simulated seconds moved. */
    double step();

    /** step(); the control interval is the fleet's own slice. */
    double advance(double sliceS) override;

    /** @return Current simulated time (s). */
    double timeS() const { return t_; }

    /** @return Fleet population. */
    std::size_t serverCount() const { return server_count_; }

    /** @return Resolved shard count. */
    std::size_t shardCount() const { return shard_count_; }

    /** @return The arenas (one per platform archetype). */
    const std::vector<std::unique_ptr<ArchetypeArena>> &arenas() const
    {
        return arenas_;
    }

    /** @return Per-arena utilization weights (cfg.placement). */
    const std::vector<double> &placementWeights() const
    {
        return weights_;
    }

    /** @return Materialized rows across all arenas. */
    std::size_t materializedCount() const { return rows_.size(); }

    /** @return True when server s has a private row. */
    bool isMaterialized(std::uint32_t s) const
    {
        return rows_.find(s) != rows_.end();
    }

    /**
     * @return The model whose state server s currently carries: its
     * private row when materialized, else its arena's baseline.
     */
    const server::ServerModel &serverView(std::uint32_t s) const;

    /** @return The perturbation state of server s (zero = baseline). */
    RowPerturbState serverPerturbState(std::uint32_t s) const;

    /** @return Canonical digest of server s's state. */
    std::uint64_t serverDigest(std::uint32_t s) const;

    /**
     * @return Canonical digest over (time, every server's state) -
     * the bit-identity oracle the tests and the perf gate compare
     * across thread counts, shard widths, and kill/resume cycles.
     */
    std::uint64_t stateDigest() const;

    /** Test hook: materialize server s without perturbing it. */
    void materializeForTest(std::uint32_t s) { materialize(s); }

    /** @return Perturbation events applied so far. */
    std::size_t eventsApplied() const { return events_applied_; }

    /** @return The full perturbation schedule (sorted). */
    const std::vector<PerturbEvent> &events() const { return events_; }

    /** Write a checkpoint of the full fleet state to path. */
    void save(const std::string &path) const;

    /**
     * Restore a checkpoint written by save().  The simulator must
     * have been constructed with the same configuration.
     * @throws FatalError on CRC/format or configuration mismatch.
     */
    void restore(const std::string &path);

    /** Serialize the full fleet state (arena baselines, rows, cursor). */
    void save(guard::CheckpointWriter &w) const override;

    /** Restore state written by save(guard::CheckpointWriter &). */
    void restore(guard::CheckpointReader &r) override;

  private:
    /** Utilization at time t (trace, or the flat run value). */
    double utilAt(double t) const;

    /** Canonical digest of every arena's wax deployment. */
    std::uint64_t waxDigest() const;

    /** Arena covering global server s. */
    ArchetypeArena &arenaOf(std::uint32_t s);
    const ArchetypeArena &arenaOf(std::uint32_t s) const;

    /** Materialize server s (no-op when already materialized). */
    MaterializedRow &materialize(std::uint32_t s);

    /** Apply every pending event with timeS <= t. */
    void applyEventsUpTo(double t);

    /**
     * Set each arena baseline's operating point for utilization u at
     * t_ and store its read-out; serial, on the calling task.
     */
    void setBaselines(double u);

    /**
     * Set one row's load, inlet and obs clock for utilization u at
     * t_ and store its read-out in row.out.  Touches nothing but the
     * row, so shard tasks call it concurrently on disjoint rows.
     */
    void setRow(MaterializedRow &row, double u);

    /**
     * The step's one shard region: each shard sets, reads out
     * (setRow) and advances by dt the materialized rows of its
     * server range.  Opens no region when no row is materialized.
     */
    void advanceRows(double u, double dt);

    /**
     * Fold the stored read-outs into the aggregate sample at time t:
     * the only serial pass over rows, in canonical order (arena by
     * arena: the aliased baseline contribution, then the arena's
     * rows in server order).
     */
    void record(double t);

    FleetConfig cfg_;
    workload::WorkloadTrace trace_;
    std::size_t server_count_;
    std::size_t shard_count_;
    std::vector<std::unique_ptr<ArchetypeArena>> arenas_;
    /** Per-arena utilization weights from cfg.placement. */
    std::vector<double> weights_;
    /** Per-arena baseline read-out of the latest sample. */
    std::vector<RowReadout> baseline_out_;
    /** Materialized rows keyed by server id (canonical order). */
    std::map<std::uint32_t, MaterializedRow> rows_;
    std::vector<PerturbEvent> events_;
    std::size_t events_pos_ = 0;
    std::size_t events_applied_ = 0;

    double t_ = 0.0;
    bool done_ = false;
    std::uint64_t control_steps_ = 0;
    std::uint64_t server_steps_ = 0;
    std::uint64_t row_steps_ = 0;
    double peak_cooling_w_ = 0.0;
    double peak_it_w_ = 0.0;
    double cooling_energy_j_ = 0.0;
    double last_cooling_w_ = 0.0;
    TimeSeries cooling_w_;
    TimeSeries it_w_;
    TimeSeries melt_;
    bool taken_ = false;
};

} // namespace fleet
} // namespace tts

#endif // TTS_FLEET_FLEET_HH

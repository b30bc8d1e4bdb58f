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
 * Each arena is stepped through its ArchetypeRun
 * (fleet/archetype_run.hh), which owns the arena's baseline, rows and
 * share of the events.  The fleet advances a checkpoint slice at a
 * time (15 control steps of 60 s in a 900 s slice).  A serial pass
 * walks the slice step by step: it queues each due event on its row
 * (cloning a new row from the baseline as it stands at that step) and
 * sets, reads out and advances the arena baselines.  Then one shard
 * region on the deterministic exec::ThreadPool steps every
 * materialized row of a shard's server range through the whole slice
 * - applying its queued events as their steps come up and storing one
 * read-out (cooling, wall power, melt fraction) per step - and a
 * serial fold sums each step's read-outs, run by run.  Rows never
 * interact between events, so one region per slice does the same
 * arithmetic as one per step.  All
 * randomness is drawn from per-server Rng::forStream sub-streams
 * before stepping begins and the fold runs in canonical (arena,
 * server) order, so the entire run - series, peaks, digests - is
 * bit-identical at any thread count, shard width and slice length.
 * Long runs checkpoint between slices through the CRC-32 guard
 * writer (arena baselines + materialized rows + event cursor) and
 * resume bit-identically, and the whole thing is observable through
 * tts::obs (fleet.* metrics, perturbation trace events, fleet.step.*
 * profile scopes).
 */

#ifndef TTS_FLEET_FLEET_HH
#define TTS_FLEET_FLEET_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/run_config.hh"
#include "fleet/archetype_run.hh"
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
     * Shards of each slice's region (each shard owns a contiguous
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
 * The control clock of a fleet run: the utilization at each sample
 * and each step's length.  FleetSim and a lone ArchetypeRun take
 * their steps from it, so both walk the same sample times.
 */
class ControlClock
{
  public:
    /**
     * @param trace Load trace (empty: flat); must outlive the clock.
     * @throws FatalError on a non-positive horizon or step size.
     */
    ControlClock(const FleetConfig &cfg,
                 const workload::WorkloadTrace &trace);

    /** @return Utilization at t (the trace, or the flat run value). */
    double utilAt(double t) const;

    /** @return True once t has reached the horizon. */
    bool atHorizon(double t) const { return t >= duration_s_ - 1e-9; }

    /**
     * @return The length of the step from t: a control interval or
     * the time left, whichever is shorter; 0 (the horizon sample) once
     * t has reached the horizon.
     */
    double stepLength(double t) const
    {
        return atHorizon(t) ? 0.0 : std::min(control_s_, duration_s_ - t);
    }

    /** @return The step from t, with the utilization at its sample. */
    SliceStep stepFrom(double t) const;

    /** @return The time after a step of @p dt from t, snapped to the
     *  horizon once it reaches it. */
    double after(double t, double dt) const;

    /** @return Samples in a whole run, the horizon sample included. */
    std::size_t sampleCount() const;

  private:
    double duration_s_;
    double control_s_;
    double flat_util_;
    const workload::WorkloadTrace *trace_;
};

/** One platform slot: its platform, servers and share of the events. */
struct FleetSlot
{
    server::ServerSpec spec;
    /** First global server index. */
    std::uint32_t first = 0;
    /** Servers in the slot (0 when the fleet is too small to fill it). */
    std::uint32_t count = 0;
    /** The schedule's events aimed at the slot, in schedule order. */
    std::vector<PerturbEvent> events;
};

/** Where a fleet's servers sit and what happens to them. */
struct FleetLayout
{
    /** The single platform, or {1U, 2U, OCP} under mixedPlatforms. */
    std::vector<FleetSlot> slots;
    /** The whole perturbation schedule, sorted. */
    std::vector<PerturbEvent> events;
};

/**
 * @return The layout of @p cfg's fleet: slot counts by
 * platformCounts, the generated schedule plus cfg.extraEvents.
 * @param spec Platform of the single slot (unless mixedPlatforms).
 * @throws FatalError when an extra event targets no server.
 */
FleetLayout layoutFleet(const server::ServerSpec &spec,
                        const FleetConfig &cfg);

/**
 * @return What a placement policy weighs about @p count servers
 * built like @p model.
 */
workload::ArchetypeLoadTraits loadTraits(const server::ServerModel &model,
                                         std::size_t count);

/**
 * Fold one fleet sample into a run's peak and integrated cooling, in
 * time order: FleetSim and the opt oracle share this arithmetic.
 */
inline void
accumulateCooling(double cooling_w, double dt, double &peak_w,
                  double &energy_j)
{
    peak_w = peak_w < cooling_w ? cooling_w : peak_w;
    if (dt > 0.0)
        energy_j += cooling_w * dt;
}

/**
 * Run one slot of a fleet alone over the whole horizon and record its
 * cooling terms: the same ArchetypeRun steps FleetSim takes, at the
 * same sample times (@p clock), in short slices on the calling
 * thread.  Folding the trajectories of every slot in slot order
 * (addCooling) gives FleetSim's cooling sums bit for bit.
 *
 * @param cfg    Fleet configuration (thermalStepS, dedupe).
 * @param clock  The fleet's control clock.
 * @param slot   The slot (count >= 1) with its share of the events.
 * @param wax    The slot's wax deployment.
 * @param weight The slot's placement weight.
 * @param out    Empty, or with its first column reserved by the
 *               caller: a pool worker then fills memory the caller's
 *               thread allocated and will free.
 */
void runArchetype(const FleetConfig &cfg, const ControlClock &clock,
                  const FleetSlot &slot, const server::WaxConfig &wax,
                  double weight, CoolingTrajectory &out);

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
     * same fleet configuration).  Advances in slices of
     * policy.checkpointEveryS simulated seconds, writing a
     * checkpoint after each when policy.path is set; the slice that
     * reaches policy.stopAfterS ends on that control step, so a
     * paused run stops where a step() loop would.
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

    /**
     * Advance one control step, plus the horizon sample when the
     * step reaches the horizon: a slice of one step.
     * @return Simulated seconds moved.
     */
    double step();

    /**
     * Advance one slice: control steps until they cover @p sliceS,
     * reach the horizon, or - inside run() - reach the step on which
     * run() pauses.  One shard region steps the rows through the
     * whole slice.  @return Simulated seconds moved.
     */
    double advance(double sliceS) override;

    /** @return Current simulated time (s). */
    double timeS() const { return t_; }

    /** @return Fleet population. */
    std::size_t serverCount() const { return server_count_; }

    /** @return Resolved shard count. */
    std::size_t shardCount() const { return shard_count_; }

    /** @return One run per non-empty platform slot, in server order. */
    const std::vector<ArchetypeRun> &runs() const { return runs_; }

    /** @return Materialized rows across all arenas. */
    std::size_t materializedCount() const;

    /** @return True when server s has a private row. */
    bool isMaterialized(std::uint32_t s) const;

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
    /** Canonical digest of every arena's wax deployment. */
    std::uint64_t waxDigest() const;

    /** Run whose arena covers global server s. */
    ArchetypeRun &runOf(std::uint32_t s);
    const ArchetypeRun &runOf(std::uint32_t s) const;

    /**
     * Materialize server s (no-op when already materialized), cloning
     * its arena's baseline as it stands now.
     */
    MaterializedRow &materialize(std::uint32_t s);

    /**
     * The one stepping path (step() and advance() both call it):
     * the serial pass over the slice's steps, one shard region
     * (stepRows), and the fold.  See the file comment.
     */
    double advanceSlice(double sliceS);

    /**
     * Queue every pending event with timeS <= t on its row at slice
     * step @p step, materializing rows as they are first hit.  The
     * global cursor walks the schedule in order; each event goes to
     * the run of its server, which holds the same events in the same
     * order.
     */
    void queueEventsUpTo(double t, std::size_t step);

    /**
     * Set, read out and advance every arena baseline for step s;
     * serial, on the calling task.
     */
    void stepBaselines(const SliceStep &s);

    /**
     * The slice's one shard region: each shard steps the materialized
     * rows of its server range (ArchetypeRun::stepRows) from their
     * first slice step to the slice's end.  Opens no region when no
     * row is materialized.
     */
    void stepRows();

    /**
     * Fold the slice's stored read-outs into one aggregate sample per
     * step: the only serial pass over rows, each sample summed in
     * canonical order (ArchetypeRun::fold, arena by arena).
     */
    void fold();

    FleetConfig cfg_;
    workload::WorkloadTrace trace_;
    ControlClock clock_;
    std::size_t server_count_;
    std::size_t shard_count_;
    std::vector<ArchetypeRun> runs_;
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

    // Slice buffers, reused from slice to slice.
    /** The slice's steps; the horizon sample, when taken, is last. */
    std::vector<SliceStep> slice_;
    /** One sum per step. */
    std::vector<SampleSums> slice_sums_;

    /** stopAfterS of the run() in progress; < 0 when none. */
    double stop_after_s_ = -1.0;
    /** Simulated seconds advance() has moved in that run(). */
    double run_advanced_s_ = 0.0;
};

} // namespace fleet
} // namespace tts

#endif // TTS_FLEET_FLEET_HH

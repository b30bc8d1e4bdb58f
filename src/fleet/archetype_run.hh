/**
 * @file
 * One platform archetype's share of a fleet run.
 *
 * Nothing couples two servers of a fleet: each arena's inlet is
 * fixed, a row's load is u * w_a + delta, and every perturbation is
 * drawn before stepping.  The only cross-arena operation is the
 * canonical-order sum of each sample's read-outs.  An ArchetypeRun is
 * one arena's part of a run: its baseline and aliased-row bookkeeping
 * (ArchetypeArena), its materialized rows, the events aimed at its
 * servers, and its placement weight.
 *
 * FleetSim steps every arena through its run - the serial pass sets
 * and advances the baseline, the shard region steps the rows, the
 * fold adds the run's terms - and folds the runs in arena order.
 * tts::opt steps one run alone over a whole horizon
 * (fleet::runArchetype) and keeps only the cooling terms it records
 * (CoolingTrajectory): they depend on nothing but the platform slot,
 * the wax, the load weight and the search-wide inputs, so a search
 * simulates each (slot, wax, weight) once and folds the memoized
 * trajectories in arena order, bit for bit what FleetSim sums.
 */

#ifndef TTS_FLEET_ARCHETYPE_RUN_HH
#define TTS_FLEET_ARCHETYPE_RUN_HH

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "fleet/arena.hh"
#include "fleet/perturbation.hh"
#include "server/server_spec.hh"

namespace tts {
namespace fleet {

/** One control step of a slice, or the horizon sample. */
struct SliceStep
{
    /** Simulated time of the step's sample (s). */
    double t = 0.0;
    /** Fleet utilization at t. */
    double u = 0.0;
    /** Seconds the step advances; 0 for the horizon sample. */
    double dt = 0.0;
};

/** One sample's sums, accumulated in canonical order. */
struct SampleSums
{
    double cooling = 0.0;
    double itPower = 0.0;
    double melt = 0.0;
    double waxServers = 0.0;
};

/**
 * One archetype run's cooling terms over a run, in fold order.
 * Column 0 holds the aliased baseline's term (aliased count x
 * coolingLoad) at every sample; then one column per materialized
 * row, in server order, holds the row's coolingLoad from the sample
 * it was cloned at.  Adding each arena's terms at a sample, arena by
 * arena (addCooling), replays FleetSim's cooling sum of that sample
 * bit for bit.
 */
struct CoolingTrajectory
{
    struct Column
    {
        /** The row's server; unused for the baseline column. */
        std::uint32_t server = 0;
        /** Sample of the column's first value. */
        std::size_t first = 0;
        std::vector<double> values;
    };
    std::vector<Column> columns;
};

/**
 * @return @p sum plus @p t's terms at sample @p j, column by column:
 * FleetSim's fold order for one arena.
 */
double addCooling(const CoolingTrajectory &t, std::size_t j, double sum);

/**
 * One arena's part of a fleet run: the arena, its materialized rows
 * (keyed by server, canonical order), its share of the perturbation
 * schedule with its own cursor, its placement weight, and the
 * current slice's baseline read-outs.
 */
class ArchetypeRun
{
  public:
    /**
     * @param index        Arena index in the fleet (MaterializedRow::arena).
     * @param spec         Platform of every row.
     * @param wax          Wax-bay contents of every row.
     * @param first_server First global server index.
     * @param count        Servers in the arena (>= 1).
     * @param initial_util Utilization the baseline equilibrates at.
     * @param events       The schedule's events aimed at this arena's
     *                     servers, in schedule order.
     */
    ArchetypeRun(std::size_t index, const server::ServerSpec &spec,
                 const server::WaxConfig &wax, std::uint32_t first_server,
                 std::uint32_t count, double initial_util,
                 std::vector<PerturbEvent> events);

    /** @return The arena (baseline, layout, aliased count). */
    ArchetypeArena &arena() { return arena_; }
    /** @return The arena (baseline, layout, aliased count). */
    const ArchetypeArena &arena() const { return arena_; }

    /** Set the placement weight (before the first step). */
    void setWeight(double w) { weight_ = w; }

    /** @return Materialized rows keyed by server id. */
    const std::map<std::uint32_t, MaterializedRow> &rows() const
    {
        return rows_;
    }

    /**
     * Materialize server s (no-op when already materialized), cloning
     * the baseline as it stands at control step @p control_step.
     */
    MaterializedRow &materialize(std::uint32_t s,
                                 std::uint64_t control_step);

    /**
     * Add a row for server s restored from a checkpoint: a fresh model
     * of the arena's (spec, wax), which the caller restores into.
     */
    MaterializedRow &restoreRow(std::uint32_t s,
                                const RowPerturbState &pert);

    /** Drop every row (checkpoint restore). */
    void clearRows() { rows_.clear(); }

    /** Set the event cursor (checkpoint restore). */
    void setEventsQueued(std::size_t n) { events_pos_ = n; }
    /** @return Time of the next unqueued event; +inf when none. */
    double nextEventTime() const;

    /**
     * Queue the next event on its row for slice step @p step,
     * materializing the row at control step @p control_step when it is
     * first hit.
     */
    void queueNext(std::size_t step, std::uint64_t control_step);

    /** Start a slice whose first step is control step @p first_step. */
    void beginSlice(std::uint64_t first_step);

    /**
     * Set the baseline's operating point for step s and store its
     * read-out and aliased row count for the slice.
     */
    void sampleBaseline(const SliceStep &s);

    /** Advance the baseline @p dt seconds. */
    void advanceBaseline(double dt, double thermal_step_s);

    /**
     * Step the rows of servers [lo, hi) through the slice: apply
     * queued events as their steps come up, set the row, store its
     * read-out and advance it.  Touches nothing but those rows, so
     * shard tasks call it concurrently on disjoint ranges.
     */
    void stepRows(std::uint32_t lo, std::uint32_t hi,
                  std::span<const SliceStep> slice,
                  double thermal_step_s);

    /**
     * Add the slice's terms into @p sums (one per slice step): the
     * aliased baseline's contribution, then every row in server
     * order.  Calling it for each arena in arena order is the fleet's
     * canonical fold.
     */
    void fold(std::vector<SampleSums> &sums) const;

    /** Append the slice's cooling terms to @p out, in fold order. */
    void recordCooling(CoolingTrajectory &out) const;

  private:
    /** @return The slice step from which @p row is stepped. */
    std::size_t firstSliceStep(const MaterializedRow &row) const;

    /** Set a row's load, inlet and obs clock; @return its read-out. */
    RowReadout setRow(MaterializedRow &row, double u, double t) const;

    std::size_t index_;
    ArchetypeArena arena_;
    double weight_ = 1.0;
    std::map<std::uint32_t, MaterializedRow> rows_;
    std::vector<PerturbEvent> events_;
    std::size_t events_pos_ = 0;
    /** Control step of the slice's first step. */
    std::uint64_t slice_first_step_ = 0;
    /** The slice's baseline read-outs, one per step. */
    std::vector<RowReadout> base_out_;
    /** Rows aliasing the baseline at each step of the slice. */
    std::vector<std::uint32_t> aliased_;
};

} // namespace fleet
} // namespace tts

#endif // TTS_FLEET_ARCHETYPE_RUN_HH

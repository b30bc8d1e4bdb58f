/**
 * @file
 * tts::opt - seeded wax-placement search over the fleet oracle.
 *
 * Multi-start simulated annealing over the SearchSpace, with the
 * fleet simulation as the cost oracle (peak cooling load or
 * annualized TCO) and two memos:
 *
 *  - an LRU memo keyed by the canonical candidate fingerprint, so
 *    revisited neighbors are free;
 *  - under it, a small trajectory memo of archetype runs.  A fleet
 *    is a fold over independent archetype runs (fleet/archetype_run.hh),
 *    and a run depends only on its platform slot, its wax and its
 *    load weight, so a candidate-memo miss that shares a slot's
 *    (wax, weight) with a recent candidate reuses that run's cooling
 *    trajectory instead of simulating it again.
 *
 * Each batch of candidate-memo misses is priced in three phases:
 * plan (serial: each miss's per-slot keys, looked up in the
 * trajectory memo), fan-out (only the distinct fresh archetype runs,
 * in one exec region) and fold (each miss's trajectories
 * summed in arena order - FleetSim's canonical order, so a priced
 * candidate is bit for bit the FleetSim run of it).
 *
 * Determinism contract (the headline test surface):
 *
 *  - Every random draw comes from Rng::forStream(seed, restart) -
 *    one private sub-stream per restart, consumed serially before
 *    any evaluation fans out.
 *  - Each iteration drafts a *batch* of proposals (and their
 *    acceptance uniforms) up front, dedupes them against the memo
 *    and within the batch, evaluates the misses' fresh archetype
 *    runs on the exec pool into index-keyed slots, then replays the
 *    accept/reject walk serially in draft order.  The walk therefore
 *    consumes identical numbers in identical order at any thread
 *    count, and the whole search - trace, memo state, best
 *    candidate - is bit-identical at 1 and N threads.
 *  - The budget counts *logical* proposal evaluations, memo hits
 *    included, so memo-on and memo-off searches walk the same
 *    trajectory; the memos only change how many archetype runs
 *    actually run.
 *
 * The returned optimum is polished by greedy descent over its full
 * neighbor set (off-budget), so it is locally minimal by
 * construction - the property test checks exactly that.
 */

#ifndef TTS_OPT_ENGINE_HH
#define TTS_OPT_ENGINE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet.hh"
#include "opt/space.hh"
#include "plant/options.hh"
#include "workload/trace.hh"

namespace tts {
namespace opt {

/** What the search minimizes. */
enum class Objective
{
    /** Fleet peak cooling load (W) - the paper's Section 5.1 axis. */
    PeakCooling,
    /** Annualized cooling-attributed capital + wax capital (USD):
     *  peak kW at the Table 2 cooling rate plus the mass-scaled wax
     *  CapEx, so heavier charges must buy their keep. */
    Tco,
};

/** @return Stable CLI name ("peak" / "tco"). */
const char *objectiveName(Objective o);

/** @return The objective named by @p name.
 *  @throws FatalError on an unknown name. */
Objective objectiveFromName(const std::string &name);

/** Search options. */
struct OptOptions
{
    /** Master seed; restart r draws from forStream(seed, r). */
    std::uint64_t seed = 0x0417c001ULL;
    /** Logical proposal evaluations across all restarts (memo hits
     *  count; initial/baseline/polish evaluations do not). */
    std::size_t budget = 128;
    /** Independent annealing restarts (>= 1); restart 0 starts from
     *  the paper candidate, later ones from random draws. */
    std::size_t restarts = 4;
    Objective objective = Objective::PeakCooling;
    /** Initial temperature as a fraction of the baseline cost. */
    double initialTempFrac = 0.02;
    /** Geometric temperature decay per iteration. */
    double coolingRate = 0.85;
    /** Proposals drafted (and evaluated together) per iteration. */
    std::size_t batchSize = 8;
    /** Memoize candidate evaluations (LRU) and archetype runs. */
    bool useMemo = true;
    /** Memo capacity (entries). */
    std::size_t memoCapacity = 4096;
    /** Greedy-descend the final best to a local minimum. */
    bool polish = true;
    /**
     * Fleet oracle base configuration: population, horizon, steps,
     * perturbations.  The engine builds no FleetSim: it lays the
     * fleet out from this and runs each slot through
     * fleet::runArchetype with the candidate's wax and placement
     * weight, so archetypeWax and placement are ignored.
     * mixedPlatforms must match the space's archetype count.
     */
    fleet::FleetConfig fleet;
    /**
     * Cooling plant the TCO objective prices the fleet's cooling
     * energy through.  The default CRAC adapter adds nothing (the
     * Table 2 rate already covers it); the peak objective ignores
     * this.
     */
    plant::PlantOptions plant;
};

/** Both objective readings of one candidate evaluation. */
struct EvalOutcome
{
    double peakCoolingW = 0.0;
    double coolingEnergyJ = 0.0;
    /** Annualized cooling-attributed + wax capital (USD/year). */
    double tcoUsdPerYear = 0.0;
};

/** One search-trace sample (appended after every batch, plus one
 *  for each restart's initial evaluation). */
struct OptTracePoint
{
    std::size_t restart = 0;
    std::size_t iteration = 0;
    /** Logical evaluations consumed so far (all restarts). */
    std::uint64_t evaluations = 0;
    /** Cost of the walk's current candidate. */
    double currentCost = 0.0;
    /** Best cost seen within this restart so far. */
    double restartBestCost = 0.0;
    double temperature = 0.0;
};

/** Decoded best configuration, one row per archetype. */
struct ArchetypeChoice
{
    std::string platform;
    double massKg = 0.0;
    double liters = 0.0;
    std::size_t boxes = 0;
    double meltTempC = 0.0;
};

/** Search result. */
struct OptResult
{
    Candidate best;
    /** Objective value of best. */
    double bestCost = 0.0;
    EvalOutcome bestOutcome;
    /** The paper's exact uniform deployment on the same oracle
     *  (run.waxConfig() on every arena, Uniform placement - not
     *  snapped to the grid), the bar the search must clear. */
    double baselineCost = 0.0;
    EvalOutcome baselineOutcome;
    /** Decoded best (per archetype) and its policy. */
    std::vector<ArchetypeChoice> choice;
    std::string policy;
    /** Final best cost of each restart. */
    std::vector<double> restartBest;
    std::vector<OptTracePoint> trace;
    /** Logical evaluations (proposals + initials + polish). */
    std::uint64_t evaluations = 0;
    /** Fleets priced: candidate-memo misses plus the baseline. */
    std::uint64_t oracleCalls = 0;
    std::uint64_t memoHits = 0;
    /** Archetype runs actually simulated. */
    std::uint64_t archRuns = 0;
    /** Archetypes of priced fleets served without a run (trajectory
     *  memo, or a run shared within the batch); archRuns plus this
     *  is every non-empty slot of every priced fleet. */
    std::uint64_t archMemoHits = 0;
    /** Greedy polish rounds taken. */
    std::size_t polishRounds = 0;

    /** @return True when the search beat the uniform baseline. */
    bool beatsBaseline() const { return bestCost < baselineCost; }
};

/** The trajectory memo's key for one platform slot of a candidate. */
struct ArchetypeKey
{
    /** Platform slot (index into SearchSpace::archetypes). */
    std::size_t slot = 0;
    /** The slot's canonical wax coordinates. */
    Candidate::Arch wax;
    /** Bit pattern of the slot's placement weight. */
    std::uint64_t weightBits = 0;

    bool operator==(const ArchetypeKey &) const = default;
};

/**
 * @return The trajectory-memo key of every non-empty platform slot
 * of @p c, in slot order.  Under wax-aware placement a slot's weight
 * depends on every slot's wax, so a change to one slot's wax can
 * change another slot's key.
 */
std::vector<ArchetypeKey> archetypeKeys(const SearchSpace &space,
                                        const Candidate &c,
                                        const OptOptions &opts);

/**
 * Evaluate one candidate on the oracle (no memo, no budget): fresh
 * archetype runs folded exactly as the engine folds every memo miss.
 * Tests use it to verify local minimality independently of the
 * engine.
 */
EvalOutcome evaluateCandidate(const SearchSpace &space,
                              const Candidate &c,
                              const workload::WorkloadTrace &trace,
                              const OptOptions &opts);

/** @return The objective's reading of an outcome. */
double costOf(const EvalOutcome &outcome, Objective objective);

/**
 * Run the search.
 *
 * @param space Configuration space (makeSearchSpace).
 * @param trace Load trace driving the fleet oracle.
 * @param opts  Search options; opts.fleet.mixedPlatforms must agree
 *              with space.archetypes.size().
 * @throws FatalError on inconsistent options.
 */
OptResult optimizeWaxPlacement(const SearchSpace &space,
                               const workload::WorkloadTrace &trace,
                               const OptOptions &opts);

} // namespace opt
} // namespace tts

#endif // TTS_OPT_ENGINE_HH

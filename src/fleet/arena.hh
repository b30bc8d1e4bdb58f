/**
 * @file
 * Archetype arenas: the fleet-scale extension of the SoA layout.
 *
 * PR 5 moved one server's node attributes into structure-of-arrays
 * storage; the fleet layer extends the same idea *across* servers.
 * Servers of one platform archetype (spec + wax deployment + shared
 * input stream) are rows of one arena.  The arena advances a single
 * *baseline row* - one materialized ServerThermalNetwork - and every
 * unperturbed row aliases it: their trajectories are bit-identical by
 * construction, so computing them once is exact deduplication, not an
 * approximation.  The first perturbation aimed at a row materializes
 * it: the baseline state is cloned bit-for-bit into a private
 * ServerModel that integrates on its own from then on.
 *
 * The arena also owns the canonical per-row state digest used by the
 * determinism tests and the fleet bench: an order-fixed FNV-1a hash
 * over the row's enthalpy vector, PCM hysteresis latches, and
 * perturbation state, identical whether the row is aliased or
 * materialized.
 */

#ifndef TTS_FLEET_ARENA_HH
#define TTS_FLEET_ARENA_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/fingerprint.hh"
#include "fleet/perturbation.hh"
#include "server/server_model.hh"
#include "server/server_spec.hh"

namespace tts {
namespace fleet {

/** Cold-aisle inlet temperature every arena row sees (C). */
constexpr double inletTempC = 25.0;

/**
 * Fold a double's bit pattern into a digest (cache::fnv1aMixU64 over
 * its 8 bytes, the digest building block).
 */
std::uint64_t digestDouble(std::uint64_t h, double v);

/**
 * Persistent perturbation state of one row; the zero value means
 * "identical to the baseline" and is what unmaterialized rows carry
 * implicitly.
 */
struct RowPerturbState
{
    /** Cumulative utilization offset. */
    double utilDelta = 0.0;
    /** Cumulative inlet-air offset (C). */
    double inletDeltaC = 0.0;
    /** Fan bank failed: frequency pinned to the DVFS floor. */
    bool fanPinned = false;

    /** @return True when every field is the baseline value. */
    bool isBaseline() const
    {
        return utilDelta == 0.0 && inletDeltaC == 0.0 && !fanPinned;
    }

    /** Fold one event's @p kind and @p value into the state. */
    void apply(PerturbKind kind, double value);
};

/**
 * One model's contribution to a fleet sample, read after its load is
 * set and before it advances; FleetSim's fold sums these.
 */
struct RowReadout
{
    /** coolingLoad() (W). */
    double coolingW = 0.0;
    /** wallPower() (W). */
    double wallW = 0.0;
    /** waxMeltFraction(); 0 for a model without wax. */
    double meltFraction = 0.0;
};

/** A perturbation waiting on its row for one step of a slice. */
struct QueuedPerturbation
{
    /** Step of the slice, counted from its first step. */
    std::size_t step = 0;
    PerturbKind kind = PerturbKind::UtilizationDelta;
    double value = 0.0;
};

/** One materialized row: a private server model + its divergences. */
struct MaterializedRow
{
    /** Global server index of this row. */
    std::uint32_t server = 0;
    /** Arena the row belongs to. */
    std::size_t arena = 0;
    RowPerturbState pert;
    std::unique_ptr<server::ServerModel> model;
    /**
     * Control step at which the row was cloned from its baseline (0
     * for rows made at construction or restored from a checkpoint):
     * a slice steps the row from this step or from its own first
     * step, whichever is later.
     */
    std::uint64_t firstStep = 0;
    /** Events due on the row in the current slice, in step order. */
    std::vector<QueuedPerturbation> queued;
    /**
     * The current slice's read-outs, indexed by slice step; the
     * buffer is reused from slice to slice.
     */
    std::vector<RowReadout> out;
};

/**
 * One platform archetype: [firstServer, firstServer + count) rows,
 * a baseline model every unmaterialized row aliases, and the clone
 * machinery for lazy materialization.
 */
class ArchetypeArena
{
  public:
    /**
     * @param spec         Platform of every row.
     * @param wax          Wax-bay contents of every row.
     * @param first_server First global server index of this arena.
     * @param count        Rows in the arena.
     * @param initial_util Utilization the baseline equilibrates at
     *                     (inlet at fleet::inletTempC).
     */
    ArchetypeArena(const server::ServerSpec &spec,
                   const server::WaxConfig &wax,
                   std::uint32_t first_server, std::uint32_t count,
                   double initial_util);

    /** @return First global server index. */
    std::uint32_t firstServer() const { return first_; }
    /** @return Rows in the arena. */
    std::uint32_t count() const { return count_; }
    /** @return True when the arena covers global server s. */
    bool covers(std::uint32_t s) const
    {
        return s >= first_ && s < first_ + count_;
    }

    /** @return The baseline row's model. */
    server::ServerModel &baseline() { return *baseline_; }
    /** @return The baseline row's model. */
    const server::ServerModel &baseline() const { return *baseline_; }

    /** @return The platform spec. */
    const server::ServerSpec &spec() const { return spec_; }
    /** @return The wax deployment. */
    const server::WaxConfig &wax() const { return wax_; }

    /**
     * Clone the baseline into a fresh private model for one row:
     * a new ServerModel of the arena's (spec, wax) whose enthalpy
     * vector, PCM hysteresis latches, guard counters, and operating
     * point are copied bit-for-bit, so an unperturbed clone advances
     * bit-identically to the baseline forever.
     */
    std::unique_ptr<server::ServerModel> cloneBaseline() const;

    /** Rows of this arena that have been materialized. */
    std::uint32_t materializedCount() const { return materialized_; }
    /** Bump the materialized-row count (FleetSim bookkeeping). */
    void noteMaterialized() { ++materialized_; }
    /** Restore the count (checkpoint resume). */
    void setMaterializedCount(std::uint32_t n) { materialized_ = n; }

    /** @return Rows still aliasing the baseline. */
    std::uint32_t aliasedCount() const
    {
        return count_ - materialized_;
    }

  private:
    server::ServerSpec spec_;
    server::WaxConfig wax_;
    std::uint32_t first_;
    std::uint32_t count_;
    std::uint32_t materialized_ = 0;
    std::unique_ptr<server::ServerModel> baseline_;
};

/**
 * Copy the evolving thermal state of one server model into another
 * of identical construction (enthalpies, PCM hysteresis, guard
 * counters, operating point).  The models must share (spec, wax).
 */
void copyServerState(const server::ServerModel &from,
                     server::ServerModel &to);

/**
 * Canonical digest of one row's evolving state: enthalpy vector, PCM
 * hysteresis latches and cycle count, and perturbation state.  Used
 * by the bit-identity tests/bench; identical for an aliased row and
 * a faithful materialized clone.
 */
std::uint64_t digestServerState(const server::ServerModel &model,
                                const RowPerturbState &pert,
                                std::uint64_t h = cache::kFnvOffsetBasis);

} // namespace fleet
} // namespace tts

#endif // TTS_FLEET_ARENA_HH

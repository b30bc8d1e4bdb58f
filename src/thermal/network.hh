/**
 * @file
 * Zone-based server thermal network.
 *
 * The model that replaces the Icepak CFD simulation.  A server is a
 * sequence of air zones traversed front-to-rear by the fan-driven air
 * stream.  Solid nodes (CPU+heatsink, DIMMs, PSU, drives, wax boxes)
 * have heat capacity, sit in one zone, and exchange heat with the air
 * entering that zone through a velocity-dependent convective
 * conductance.  Air itself is quasi-steady (its capacity is
 * negligible next to the solids), so zone air temperatures follow
 * algebraically from an upstream walk:
 *
 *     T_air[z+1] = T_air[z] + Q_zone / (m_dot * cp)
 *
 * Solid node enthalpies are the ODE state; PCM nodes carry an
 * enthalpy-temperature curve so melting needs no special cases.
 * Energy is conserved by construction: d/dt(sum H) = sum P_in -
 * (heat advected out by the air).
 *
 * Hot-path layout: node attributes live in structure-of-arrays
 * storage (parallel vectors indexed by node id) rather than an
 * array-of-structs, the zone->node topology is precompiled into a
 * CSR-style (offsets, ids) pair instead of being re-scanned every
 * air walk, and the velocity-dependent conductances are cached per
 * airflow revision (they only change when blockage or fan speed
 * does).  All caches replay bit-identical arithmetic - see
 * thermal/kernel_config.hh for the reference-mode switch that
 * disables them.
 */

#ifndef TTS_THERMAL_NETWORK_HH
#define TTS_THERMAL_NETWORK_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "guard/numerics.hh"
#include "pcm/pcm_element.hh"
#include "thermal/airflow.hh"
#include "util/integrator.hh"

namespace tts {
namespace thermal {

/**
 * Velocity-dependent convective conductance UA(v) = ua0 *
 * (v / v_ref)^exponent, with a small floor so natural convection
 * keeps nodes coupled when fans idle.
 */
struct ConvectiveCoupling
{
    /** Conductance at the reference velocity (W/K). */
    double ua0;
    /** Reference velocity (m/s). */
    double refVelocity = 2.0;
    /** Velocity exponent (0.8 for turbulent forced convection). */
    double exponent = 0.8;

    /** @return Conductance at the given velocity (W/K). */
    double ua(double velocity) const;
};

/** Which velocity a node's coupling sees. */
enum class VelocityRef
{
    /** Mean duct velocity (most components). */
    Duct,
    /** Accelerated velocity through the blocked section (wax boxes). */
    Constriction,
};

/** A conduction link between two solid nodes (W/K). */
struct ConductionLink
{
    int a;
    int b;
    double conductance;
};

/**
 * The server thermal network.  Typical driver loop:
 *
 * @code
 *   net.setNodePower(cpu, watts);
 *   net.airflow().setFanSpeed(speed);
 *   net.advance(60.0, 1.0);
 *   double out = net.outletTemp();
 * @endcode
 */
class ServerThermalNetwork
{
  public:
    /**
     * @param airflow      Calibrated airflow model (copied).
     * @param zone_count   Number of air zones front-to-rear (>= 1).
     * @param inlet_temp_c Cold-aisle inlet temperature (C).
     */
    ServerThermalNetwork(const AirflowModel &airflow,
                         std::size_t zone_count, double inlet_temp_c);

    /**
     * Add a constant-capacity solid node.
     *
     * @param name           Debug/report name.
     * @param capacity       Heat capacity (J/K), > 0.
     * @param coupling       Convective coupling to the zone air.
     * @param zone           Zone index.
     * @param initial_temp_c Initial temperature (C).
     * @param vref           Velocity reference for the coupling.
     * @return Node id.
     */
    int addCapacityNode(const std::string &name, double capacity,
                        const ConvectiveCoupling &coupling,
                        std::size_t zone, double initial_temp_c,
                        VelocityRef vref = VelocityRef::Duct);

    /**
     * Add a PCM node backed by a PcmElement.  The node's enthalpy
     * curve and air conductance come from the element; the element's
     * state is kept in sync after every advance().
     *
     * @param name        Debug/report name.
     * @param element     PCM element; must outlive the network.
     * @param zone        Zone index.
     * @param air_coupled When false the node exchanges no heat with
     *                    the air stream (an interior shell of a
     *                    discretized charge; couple it with
     *                    addConduction instead).
     * @return Node id.
     */
    int addPcmNode(const std::string &name, pcm::PcmElement *element,
                   std::size_t zone, bool air_coupled = true);

    /** Add a conduction link (W/K) between two solid nodes. */
    void addConduction(int a, int b, double conductance);

    /** Set external power injected into a node (W). */
    void setNodePower(int node, double watts);
    /** @return External power currently injected into a node (W). */
    double nodePower(int node) const;

    /**
     * Set power dumped directly into the air in a zone (fan motors,
     * lumped minor components) (W).
     */
    void setDirectAirPower(std::size_t zone, double watts);

    /** @return Power dumped directly into the air in a zone (W). */
    double directAirPower(std::size_t zone) const;

    /**
     * Set the plume mixing fraction of a zone.
     *
     * Air arriving at zone z from a concentrated upstream heat source
     * (a CPU heatsink channel) is only partially mixed: with mixing
     * fraction p in (0, 1], nodes in zone z see
     *
     *     T_local[z] = T_mixed[z] + (1/p - 1) * dT_upstream
     *
     * where dT_upstream is the mixed-air temperature rise produced by
     * the immediately-upstream zone.  p == 1 (default) recovers the
     * fully-mixed model.  Energy accounting always uses the mixed
     * stream, so conservation is unaffected.
     */
    void setZonePlumeFraction(std::size_t zone, double p);

    /** Set the inlet (cold aisle) temperature (C). */
    void setInletTemp(double t_c);
    /** @return Inlet temperature (C). */
    double inletTemp() const { return inlet_temp_; }

    /** @return Mutable airflow model (speed, blockage). */
    AirflowModel &airflow() { return airflow_; }
    /** @return The airflow model. */
    const AirflowModel &airflow() const { return airflow_; }

    /**
     * Integrate the network forward by dt_total using RK4 with fixed
     * internal step dt_step, holding powers and airflow constant.
     *
     * When the guard is enabled (default) every interval is audited:
     * the state vector is augmented with an energy accumulator
     * integrating d(sum H)/dt with the same quadrature as the nodes,
     * so the residual sum(H_end) - E_end is zero up to rounding in a
     * healthy solve and any NaN/Inf or externally-corrupted state
     * trips at the interval where it happened.  On a trip the
     * interval's enthalpy state is rolled back and re-integrated at a
     * halved step (geometric backoff, bounded attempts), then
     * optionally with an adaptive RK23 fallback; retries and
     * degradations are recorded in guardCounters().  A run that never
     * trips is bit-identical to the unguarded solve.
     *
     * @throws guard::NumericsError naming the worst node when every
     *         retry and fallback is exhausted.
     */
    void advance(double dt_total, double dt_step = 1.0);

    /** @return The guard policy for this network. */
    const guard::GuardConfig &guardConfig() const
    {
        return guard_config_;
    }
    /** Replace the guard policy. */
    void setGuardConfig(const guard::GuardConfig &cfg)
    {
        guard_config_ = cfg;
    }

    /** @return Retry/degradation counters accumulated by advance(). */
    const guard::GuardCounters &guardCounters() const
    {
        return guard_counters_;
    }
    /** Restore counters (checkpoint resume). */
    void setGuardCounters(const guard::GuardCounters &c)
    {
        guard_counters_ = c;
    }

    /**
     * Test hook: corrupt the augmented state vector (node entries
     * [0, nodeCount()), energy accumulator last) after integration
     * but before the sentinel/audit checks of each guarded attempt.
     *
     * @param fn   Mutator; null clears the hook.
     * @param once Fire on the first attempt only, then clear; false
     *             keeps firing (exhaustion tests).
     */
    void setGuardTestCorruptor(
        std::function<void(std::vector<double> &)> fn, bool once = true)
    {
        guard_corruptor_ = std::move(fn);
        guard_corruptor_once_ = once;
    }

    /** @return Node enthalpy state (J), for checkpointing. */
    const std::vector<double> &enthalpies() const { return state_; }

    /**
     * Restore the node enthalpy state (checkpoint resume).  PCM
     * elements are re-synced via setEnthalpy(); their hysteresis
     * flags must be restored separately afterwards
     * (pcm::PcmElement::restoreThermalState), which overwrites the
     * latch updates this sync performs.
     */
    void setEnthalpies(const std::vector<double> &h);

    /**
     * Set every node to its steady-state temperature for the current
     * powers and airflow (Gauss-Seidel on the local balances).
     */
    void solveSteadyState();

    /** @return Node temperature (C). */
    double nodeTemperature(int node) const;

    /** @return Node stored enthalpy (J). */
    double nodeEnthalpy(int node) const;

    /**
     * @return Local air temperature seen by nodes in the given zone
     * (C), including the plume correction; zone 0 returns the inlet
     * temperature.
     */
    double zoneAirTemp(std::size_t zone) const;

    /**
     * @return Fully-mixed air temperature entering the given zone
     * (C); index zone_count() gives the outlet.
     */
    double zoneMixedTemp(std::size_t zone) const;

    /** @return Air temperature leaving the server (C). */
    double outletTemp() const;

    /**
     * @return Heat currently carried away by the air stream (W) ==
     * m_dot * cp * (outlet - inlet).  This is the server's
     * instantaneous contribution to the room cooling load.
     */
    double airHeatRate() const;

    /** @return Sum of external node power + direct air power (W). */
    double totalInputPower() const;

    /** @return Number of solid nodes. */
    std::size_t nodeCount() const { return names_.size(); }

    /** @return Name of a node. */
    const std::string &nodeName(int node) const;

    /** @return Node id by name, or -1. */
    int findNode(const std::string &name) const;

    /**
     * Enable/disable the conductance + topology caches (defaults to
     * KernelConfig.networkCache at construction).  Disabling gives
     * the reference recompute-per-call kernel; results are
     * bit-identical either way.
     */
    void setKernelCacheEnabled(bool enabled);
    /** @return True when the kernel caches are on. */
    bool kernelCacheEnabled() const { return kernel_cache_; }

    /**
     * Observability: label prefixed to node names in emitted trace
     * events (e.g. "with_wax/srv"); empty by default.
     */
    void setObsLabel(const std::string &label)
    {
        obs_label_ = label;
    }
    /** @return The observability label. */
    const std::string &obsLabel() const { return obs_label_; }

    /**
     * Observability: absolute simulation time of the current state
     * (seconds).  advance() moves it forward by dt_total; drivers
     * that own the clock (resilience arms) set it before advancing
     * so trace events carry study time rather than network-local
     * time.  Never read by the simulation itself.
     */
    void setObsClock(double t_s) { obs_clock_ = t_s; }
    /** @return The observability clock (seconds). */
    double obsClock() const { return obs_clock_; }

  private:
    /** Temperature of node i at enthalpy h. */
    double tempOf(std::size_t i, double h) const;

    /**
     * Direction-aware conductance of node i at the current airflow:
     * PCM nodes release heat through a derated (conduction-limited)
     * path.  Reads the cached base conductance when the kernel cache
     * is on (refreshKernelCaches() must have run this revision).
     */
    double uaAt(std::size_t i, double t_node, double t_air) const;

    /** The uncached base conductance of node i (no freeze derating). */
    double computeUaBase(std::size_t i) const;

    /**
     * Rebuild the CSR zone topology and the per-node conductance
     * table iff stale (topology or airflow revision moved).  No-op
     * when the kernel cache is off.
     */
    void refreshKernelCaches() const;

    /**
     * Evaluate every node's temperature once: t[i] = tempOf(i, h[i]).
     * A PCM node's lookup is a curve inversion, so the air walk, the
     * node balances and the conduction links all read this one pass.
     */
    void nodeTemps(const std::vector<double> &h,
                   std::vector<double> &t) const;

    /**
     * Walk the air path for the given node temperatures.
     *
     * @param t_node  Node temperatures (from nodeTemps()); a
     *                non-finite one throws guard::NumericsError naming
     *                the first such node in walk order (zone by zone,
     *                ascending ids within a zone).
     * @param t_mixed Output: fully-mixed stream temperature entering
     *                each zone (size zone_count + 1; last entry is
     *                the outlet).
     * @param t_local Output: local (plume-corrected) temperature seen
     *                by nodes in each zone (size zone_count).
     */
    void airWalk(const std::vector<double> &t_node,
                 std::vector<double> &t_mixed,
                 std::vector<double> &t_local) const;

    /** ODE right-hand side dH/dt. */
    void rhs(const std::vector<double> &h,
             std::vector<double> &dh) const;

    /**
     * One guarded integration attempt over the augmented state;
     * throws guard::NumericsError on a sentinel or audit trip,
     * leaving state_ untouched (the attempt works on a scratch
     * vector).  On success commits the node entries to state_.
     */
    void guardedAttempt(const OdeRhs &f, double dt_total, double dt);

    /** Same, with the adaptive RK23 fallback stepper. */
    void fallbackAttempt(const OdeRhs &f, double dt_total);

    /** Sentinel + audit checks on a completed augmented state. */
    void checkAttempt(std::vector<double> &aug, double dt_total);

    /** Wrap a NumericsError with node/zone naming and rethrow. */
    [[noreturn]] void enrich(const guard::NumericsError &e) const;

    /** Event subject: "<label>/<node>" ("net" when node is empty). */
    std::string obsName(const std::string &node) const;

    /** Snapshot PCM melt fractions into obs_melt_prev_. */
    void seedMeltFractions();

    /**
     * Emit melt onset/complete/refrozen transitions against
     * obs_melt_prev_ and bump the step counter.  Only called with
     * collection enabled, after advance() committed the state.
     */
    void emitThermalEvents(std::uint64_t steps_taken);

    AirflowModel airflow_;
    std::size_t zone_count_;
    double inlet_temp_;

    // Node attributes, structure-of-arrays (all sized nodeCount()).
    std::vector<std::string> names_;
    std::vector<double> capacity_;       //!< J/K; 0 for PCM nodes.
    std::vector<ConvectiveCoupling> coupling_; //!< Unused for PCM.
    std::vector<std::size_t> zone_;
    std::vector<VelocityRef> vref_;
    std::vector<pcm::PcmElement *> element_; //!< Null for capacity.
    std::vector<double> power_;          //!< External input (W).
    std::vector<char> air_coupled_;      //!< Exchanges with the air.

    std::vector<ConductionLink> links_;
    std::vector<double> direct_air_power_;
    std::vector<double> plume_fraction_;
    std::vector<double> state_;          //!< Node enthalpies (J).
    RungeKutta4 stepper_;
    mutable std::vector<double> t_node_scratch_;
    mutable std::vector<double> t_mixed_scratch_;
    mutable std::vector<double> t_local_scratch_;

    // Kernel caches (see refreshKernelCaches).
    bool kernel_cache_;
    std::uint64_t topo_rev_ = 0;         //!< Bumped per added node.
    mutable std::uint64_t csr_topo_rev_ = ~std::uint64_t{0};
    mutable std::vector<std::size_t> zone_offsets_; //!< CSR offsets.
    mutable std::vector<std::size_t> zone_node_ids_; //!< CSR ids.
    mutable std::uint64_t ua_topo_rev_ = ~std::uint64_t{0};
    mutable std::uint64_t ua_airflow_rev_ = ~std::uint64_t{0};
    mutable std::vector<double> ua_base_; //!< Cached conductances.

    guard::GuardConfig guard_config_;
    guard::GuardCounters guard_counters_;
    std::function<void(std::vector<double> &)> guard_corruptor_;
    bool guard_corruptor_once_ = true;
    std::vector<double> aug_scratch_;    //!< Guarded-attempt state.

    std::string obs_label_;              //!< Trace event prefix.
    double obs_clock_ = 0.0;             //!< Sim time of state_ (s).
    bool obs_melt_seeded_ = false;       //!< obs_melt_prev_ valid.
    std::vector<double> obs_melt_prev_;  //!< Melt fraction per node.
};

/**
 * Advance a batch of independent networks by the same interval.
 *
 * Small batches (fewer than four networks - e.g. the two
 * representative servers of a resilience arm) run serially on the
 * caller: per-region thread recruitment would cost more than the
 * integration.  Larger batches fan out through the global
 * exec::ThreadPool with its deterministic (region, task, seq) obs
 * stream keys; since the networks share no state, results are
 * bit-identical at any thread count.
 */
void advanceNetworks(const std::vector<ServerThermalNetwork *> &nets,
                     double dt_total, double dt_step = 1.0);

} // namespace thermal
} // namespace tts

#endif // TTS_THERMAL_NETWORK_HH

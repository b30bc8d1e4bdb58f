#include "thermal/network.hh"

#include <cmath>

#include "exec/parallel.hh"
#include "obs/obs.hh"
#include "thermal/kernel_config.hh"
#include "util/error.hh"
#include "util/units.hh"

namespace tts {
namespace thermal {

double
ConvectiveCoupling::ua(double velocity) const
{
    double v = std::max(velocity, 0.05);
    return ua0 * std::pow(v / refVelocity, exponent);
}

ServerThermalNetwork::ServerThermalNetwork(const AirflowModel &airflow,
                                           std::size_t zone_count,
                                           double inlet_temp_c)
    : airflow_(airflow), zone_count_(zone_count),
      inlet_temp_(inlet_temp_c),
      direct_air_power_(zone_count, 0.0),
      plume_fraction_(zone_count, 1.0),
      kernel_cache_(defaultKernelConfig().networkCache),
      guard_config_(guard::defaultGuardConfig())
{
    require(zone_count >= 1,
            "ServerThermalNetwork: need at least one zone");
}

int
ServerThermalNetwork::addCapacityNode(const std::string &name,
                                      double capacity,
                                      const ConvectiveCoupling &coupling,
                                      std::size_t zone,
                                      double initial_temp_c,
                                      VelocityRef vref)
{
    require(capacity > 0.0,
            "addCapacityNode: capacity must be > 0");
    require(coupling.ua0 > 0.0, "addCapacityNode: ua0 must be > 0");
    require(zone < zone_count_, "addCapacityNode: zone out of range");
    names_.push_back(name);
    capacity_.push_back(capacity);
    coupling_.push_back(coupling);
    zone_.push_back(zone);
    vref_.push_back(vref);
    element_.push_back(nullptr);
    power_.push_back(0.0);
    air_coupled_.push_back(1);
    state_.push_back(capacity * initial_temp_c);
    ++topo_rev_;
    return static_cast<int>(names_.size()) - 1;
}

int
ServerThermalNetwork::addPcmNode(const std::string &name,
                                 pcm::PcmElement *element,
                                 std::size_t zone, bool air_coupled)
{
    require(element != nullptr, "addPcmNode: null element");
    require(zone < zone_count_, "addPcmNode: zone out of range");
    names_.push_back(name);
    capacity_.push_back(0.0);
    coupling_.push_back(ConvectiveCoupling{1.0, 2.0, 0.8});
    zone_.push_back(zone);
    vref_.push_back(VelocityRef::Constriction);
    element_.push_back(element);
    power_.push_back(0.0);
    air_coupled_.push_back(air_coupled ? 1 : 0);
    state_.push_back(element->storedEnthalpy());
    ++topo_rev_;
    return static_cast<int>(names_.size()) - 1;
}

void
ServerThermalNetwork::addConduction(int a, int b, double conductance)
{
    require(a >= 0 && a < static_cast<int>(names_.size()) &&
            b >= 0 && b < static_cast<int>(names_.size()) && a != b,
            "addConduction: bad node ids");
    require(conductance > 0.0,
            "addConduction: conductance must be > 0");
    links_.push_back({a, b, conductance});
}

void
ServerThermalNetwork::setNodePower(int node, double watts)
{
    require(node >= 0 && node < static_cast<int>(names_.size()),
            "setNodePower: bad node id");
    require(watts >= 0.0, "setNodePower: power must be >= 0");
    power_[node] = watts;
}

double
ServerThermalNetwork::nodePower(int node) const
{
    require(node >= 0 && node < static_cast<int>(names_.size()),
            "nodePower: bad node id");
    return power_[node];
}

void
ServerThermalNetwork::setDirectAirPower(std::size_t zone, double watts)
{
    require(zone < zone_count_, "setDirectAirPower: zone out of range");
    require(watts >= 0.0, "setDirectAirPower: power must be >= 0");
    direct_air_power_[zone] = watts;
}

double
ServerThermalNetwork::directAirPower(std::size_t zone) const
{
    require(zone < zone_count_, "directAirPower: zone out of range");
    return direct_air_power_[zone];
}

void
ServerThermalNetwork::setZonePlumeFraction(std::size_t zone, double p)
{
    require(zone < zone_count_,
            "setZonePlumeFraction: zone out of range");
    require(p > 0.0 && p <= 1.0,
            "setZonePlumeFraction: fraction must be in (0, 1]");
    plume_fraction_[zone] = p;
}

void
ServerThermalNetwork::setInletTemp(double t_c)
{
    inlet_temp_ = t_c;
}

void
ServerThermalNetwork::setKernelCacheEnabled(bool enabled)
{
    kernel_cache_ = enabled;
    // Force a rebuild on next use so a re-enable never reads stale
    // tables.
    csr_topo_rev_ = ~std::uint64_t{0};
    ua_topo_rev_ = ~std::uint64_t{0};
    ua_airflow_rev_ = ~std::uint64_t{0};
}

double
ServerThermalNetwork::tempOf(std::size_t i, double h) const
{
    if (element_[i])
        return element_[i]->temperatureAtEnthalpy(h);
    return h / capacity_[i];
}

double
ServerThermalNetwork::computeUaBase(std::size_t i) const
{
    if (!air_coupled_[i])
        return 0.0;
    double v = vref_[i] == VelocityRef::Constriction
        ? airflow_.velocityAtBlockage()
        : airflow_.ductVelocity();
    if (element_[i])
        return element_[i]->bank().conductanceAt(v);
    return coupling_[i].ua(v);
}

double
ServerThermalNetwork::uaAt(std::size_t i, double t_node,
                           double t_air) const
{
    // The cached base conductance is the bit-identical result of
    // computeUaBase() at the current airflow revision; only the
    // direction-dependent PCM freeze derating (a mutable element
    // property) is applied live.
    double ua = kernel_cache_ ? ua_base_[i] : computeUaBase(i);
    if (element_[i] && air_coupled_[i] && t_node > t_air)
        ua *= element_[i]->freezeConductanceFactor();
    return ua;
}

void
ServerThermalNetwork::refreshKernelCaches() const
{
    if (!kernel_cache_)
        return;
    const std::size_t n = names_.size();
    if (csr_topo_rev_ != topo_rev_) {
        zone_offsets_.assign(zone_count_ + 1, 0);
        for (std::size_t i = 0; i < n; ++i)
            ++zone_offsets_[zone_[i] + 1];
        for (std::size_t z = 0; z < zone_count_; ++z)
            zone_offsets_[z + 1] += zone_offsets_[z];
        zone_node_ids_.resize(n);
        std::vector<std::size_t> cursor(
            zone_offsets_.begin(), zone_offsets_.end() - 1);
        // Ascending node ids within each zone: the air walk must
        // accumulate q in the same order as the reference full scan.
        for (std::size_t i = 0; i < n; ++i)
            zone_node_ids_[cursor[zone_[i]]++] = i;
        csr_topo_rev_ = topo_rev_;
    }
    std::uint64_t arev = airflow_.revision();
    if (ua_topo_rev_ != topo_rev_ || ua_airflow_rev_ != arev) {
        ua_base_.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            ua_base_[i] = computeUaBase(i);
        ua_topo_rev_ = topo_rev_;
        ua_airflow_rev_ = arev;
    }
}

void
ServerThermalNetwork::nodeTemps(const std::vector<double> &h,
                                std::vector<double> &t) const
{
    const std::size_t n = names_.size();
    t.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        t[i] = tempOf(i, h[i]);
}

void
ServerThermalNetwork::airWalk(const std::vector<double> &t_node,
                              std::vector<double> &t_mixed,
                              std::vector<double> &t_local) const
{
    t_mixed.resize(zone_count_ + 1);
    t_local.resize(zone_count_);
    double mcp = airflow_.massFlow() * units::airSpecificHeat;
    invariant(mcp > 0.0, "airWalk: no airflow");
    refreshKernelCaches();
    t_mixed[0] = inlet_temp_;
    double upstream_rise = 0.0;

    auto node_heat = [&](std::size_t i, std::size_t z,
                         double t_air) {
        double tn = t_node[i];
        if (!std::isfinite(tn)) {
            throw guard::NumericsError(
                "airWalk: non-finite temperature at node '" +
                    names_[i] + "' (zone " + std::to_string(z) + ")",
                names_[i], static_cast<std::ptrdiff_t>(z), -1.0, 0.0,
                static_cast<std::ptrdiff_t>(i));
        }
        return uaAt(i, tn, t_air) * (tn - t_air);
    };

    for (std::size_t z = 0; z < zone_count_; ++z) {
        double p = plume_fraction_[z];
        t_local[z] = t_mixed[z] + (1.0 / p - 1.0) * upstream_rise;
        double q = direct_air_power_[z];
        if (kernel_cache_) {
            // Precompiled CSR slice: only this zone's nodes, in
            // ascending id order (same accumulation order as the
            // reference scan below).
            for (std::size_t k = zone_offsets_[z];
                 k < zone_offsets_[z + 1]; ++k)
                q += node_heat(zone_node_ids_[k], z, t_local[z]);
        } else {
            for (std::size_t i = 0; i < names_.size(); ++i) {
                if (zone_[i] != z)
                    continue;
                q += node_heat(i, z, t_local[z]);
            }
        }
        upstream_rise = q / mcp;
        t_mixed[z + 1] = t_mixed[z] + upstream_rise;
    }
}

void
ServerThermalNetwork::rhs(const std::vector<double> &h,
                          std::vector<double> &dh) const
{
    // One temperature per node per call, read by the air walk, the
    // node balances and the links alike.  tempOf() is a pure function
    // of (i, h[i]), so this matches evaluating it at each use bit for
    // bit.
    nodeTemps(h, t_node_scratch_);
    const std::vector<double> &temp = t_node_scratch_;
    airWalk(temp, t_mixed_scratch_, t_local_scratch_);
    const std::size_t n = names_.size();
    dh.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        double t = temp[i];
        double t_air = t_local_scratch_[zone_[i]];
        dh[i] = power_[i] - uaAt(i, t, t_air) * (t - t_air);
    }
    for (const auto &link : links_) {
        double q = link.conductance * (temp[link.a] - temp[link.b]);
        dh[link.a] -= q;
        dh[link.b] += q;
    }
}

void
ServerThermalNetwork::advance(double dt_total, double dt_step)
{
    require(dt_total >= 0.0, "advance: dt_total must be >= 0");
    require(dt_step > 0.0, "advance: dt_step must be > 0");
    if (dt_total == 0.0)
        return;

    obs::Scope profile("thermal.advance");

    // Capture pre-interval melt fractions the first time collection
    // is on, so a transition inside this very interval is seen.
    if (obs::enabled() && !obs_melt_seeded_)
        seedMeltFractions();

    if (!guard_config_.enabled) {
        OdeRhs plain = [this](double, const std::vector<double> &h,
                              std::vector<double> &dh) { rhs(h, dh); };
        integrate(stepper_, plain, 0.0, dt_total, dt_step, state_);
        for (std::size_t i = 0; i < names_.size(); ++i) {
            if (element_[i])
                element_[i]->setEnthalpy(state_[i]);
        }
        obs_clock_ += dt_total;
        if (obs::enabled())
            emitThermalEvents(static_cast<std::uint64_t>(
                std::ceil(dt_total / dt_step)));
        else
            obs_melt_seeded_ = false;
        return;
    }

    // Guarded path.  The rhs is augmented with an energy accumulator
    // whose derivative is sum(dH/dt); the stepper integrates it with
    // exactly the same quadrature as the node enthalpies, so in a
    // healthy solve it tracks sum(H) to rounding error and the audit
    // below is a corruption detector rather than a discretization
    // check.  The node entries see identical arithmetic to the
    // unguarded solve, so a run that never trips is bit-identical.
    OdeRhs f = [this](double, const std::vector<double> &h,
                      std::vector<double> &dh) {
        rhs(h, dh);
        double s = 0.0;
        for (double d : dh)
            s += d;
        dh.push_back(s);
    };

    ++guard_counters_.advances;
    const std::uint64_t steps_before = guard_counters_.steps;
    double dt = dt_step;
    int attempt = 0;
    for (;;) {
        try {
            guardedAttempt(f, dt_total, dt);
            break;
        } catch (const guard::NumericsError &e) {
            if (e.residualJ() != 0.0)
                ++guard_counters_.auditTrips;
            else
                ++guard_counters_.sentinelTrips;
            // state_ is untouched by a failed attempt (the attempt
            // works on aug_scratch_), so retrying is a plain re-run
            // at a smaller step.
            if (attempt < guard_config_.maxRetries) {
                ++attempt;
                ++guard_counters_.retries;
                dt *= guard_config_.backoffFactor;
                TTS_OBS_EVENT(obs::EventKind::GuardRetry, obs_clock_,
                              obsName(e.node()), e.residualJ(),
                              attempt);
                continue;
            }
            if (guard_config_.fallbackAdaptive) {
                ++guard_counters_.fallbacks;
                TTS_OBS_EVENT(obs::EventKind::GuardFallback,
                              obs_clock_, obsName(e.node()),
                              e.residualJ(), attempt);
                try {
                    fallbackAttempt(f, dt_total);
                    break;
                } catch (const guard::NumericsError &e2) {
                    if (e2.residualJ() != 0.0)
                        ++guard_counters_.auditTrips;
                    else
                        ++guard_counters_.sentinelTrips;
                    TTS_OBS_EVENT(obs::EventKind::GuardTrip,
                                  obs_clock_, obsName(e2.node()),
                                  e2.residualJ(), attempt);
                    enrich(e2);
                }
            }
            TTS_OBS_EVENT(obs::EventKind::GuardTrip, obs_clock_,
                          obsName(e.node()), e.residualJ(), attempt);
            enrich(e);
        }
    }

    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (element_[i])
            element_[i]->setEnthalpy(state_[i]);
    }
    obs_clock_ += dt_total;
    if (obs::enabled())
        emitThermalEvents(guard_counters_.steps - steps_before);
    else
        obs_melt_seeded_ = false;
}

void
ServerThermalNetwork::guardedAttempt(const OdeRhs &f, double dt_total,
                                     double dt)
{
    const std::size_t n = names_.size();
    aug_scratch_.assign(state_.begin(), state_.end());
    double h0_sum = 0.0;
    for (double h : state_)
        h0_sum += h;
    aug_scratch_.push_back(h0_sum);

    std::uint64_t steps = 0;
    auto obs = [&steps](double t, const std::vector<double> &) {
        if (t > 0.0)
            ++steps;
    };
    integrate(stepper_, f, 0.0, dt_total, dt, aug_scratch_, obs);
    checkAttempt(aug_scratch_, dt_total);
    // Count steps only after the attempt passed its checks: a
    // tripped attempt is rolled back wholesale, and `steps` is
    // documented as *accepted* integrator steps.
    guard_counters_.steps += steps;
    state_.assign(aug_scratch_.begin(),
                  aug_scratch_.begin() + static_cast<std::ptrdiff_t>(n));
}

void
ServerThermalNetwork::fallbackAttempt(const OdeRhs &f, double dt_total)
{
    const std::size_t n = names_.size();
    aug_scratch_.assign(state_.begin(), state_.end());
    double h0_sum = 0.0;
    for (double h : state_)
        h0_sum += h;
    aug_scratch_.push_back(h0_sum);

    AdaptiveRk23 fallback(guard_config_.fallbackRtol,
                          guard_config_.fallbackAtol);
    std::uint64_t steps =
        fallback.integrate(f, 0.0, dt_total, aug_scratch_);
    checkAttempt(aug_scratch_, dt_total);
    // As in guardedAttempt: rolled-back attempts contribute no
    // accepted steps.
    guard_counters_.steps += steps;
    state_.assign(aug_scratch_.begin(),
                  aug_scratch_.begin() + static_cast<std::ptrdiff_t>(n));
}

void
ServerThermalNetwork::checkAttempt(std::vector<double> &aug,
                                   double dt_total)
{
    if (guard_corruptor_) {
        auto fn = guard_corruptor_;
        if (guard_corruptor_once_)
            guard_corruptor_ = nullptr;
        fn(aug);
    }

    const std::size_t n = names_.size();
    std::ptrdiff_t bad = guard::firstNonFinite(aug);
    if (bad >= 0) {
        throw guard::NumericsError(
            "advance: non-finite state after interval", std::string(),
            -1, dt_total, 0.0, bad);
    }

    ++guard_counters_.audits;
    double h_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        h_sum += aug[i];
    const double e_acc = aug[n];
    const double residual = h_sum - e_acc;
    const double scale = guard_config_.auditAtolJ +
        guard_config_.auditRtol * (std::abs(h_sum) + std::abs(e_acc));
    const double mag = std::abs(residual);
    if (mag > guard_counters_.worstResidualJ) {
        guard_counters_.worstResidualJ = mag;
        guard_counters_.worstResidualTimeS = dt_total;
    }
    if (mag > scale) {
        // Attribute the trip to the node that moved furthest over
        // the interval - with an external corruption that is the
        // corrupted node; with genuine divergence it is the node
        // driving it.
        std::size_t worst = 0;
        double wmag = -1.0;
        for (std::size_t i = 0; i < n; ++i) {
            double d = std::abs(aug[i] - state_[i]);
            if (d > wmag) {
                wmag = d;
                worst = i;
            }
        }
        throw guard::NumericsError(
            "advance: energy audit residual " + std::to_string(mag) +
                " J exceeds tolerance " + std::to_string(scale) +
                " J (worst node '" + names_[worst] + "')",
            names_[worst],
            static_cast<std::ptrdiff_t>(zone_[worst]), dt_total,
            mag, static_cast<std::ptrdiff_t>(worst));
    }
}

void
ServerThermalNetwork::enrich(const guard::NumericsError &e) const
{
    std::ptrdiff_t idx = e.stateIndex();
    std::string node = e.node();
    std::ptrdiff_t zone = e.zone();
    if (node.empty() && idx >= 0) {
        if (idx < static_cast<std::ptrdiff_t>(names_.size())) {
            node = names_[idx];
            zone = static_cast<std::ptrdiff_t>(zone_[idx]);
        } else {
            node = "<energy-accumulator>";
        }
    }
    throw guard::NumericsError(
        "thermal guard: retries exhausted: " + std::string(e.what()) +
            (node.empty() ? std::string()
                          : " [node '" + node + "']"),
        node, zone, e.timeS(), e.residualJ(), idx);
}

std::string
ServerThermalNetwork::obsName(const std::string &node) const
{
    const std::string &leaf = node.empty() ? "net" : node;
    if (obs_label_.empty())
        return leaf;
    return obs_label_ + "/" + leaf;
}

void
ServerThermalNetwork::seedMeltFractions()
{
    obs_melt_prev_.assign(names_.size(), 0.0);
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (element_[i])
            obs_melt_prev_[i] = element_[i]->meltFraction();
    }
    obs_melt_seeded_ = true;
}

void
ServerThermalNetwork::emitThermalEvents(std::uint64_t steps_taken)
{
    static obs::Counter &step_count =
        obs::registry().counter("thermal.advance.steps");
    static obs::Counter &advance_count =
        obs::registry().counter("thermal.advance.count");
    step_count.add(steps_taken);
    advance_count.add(1);

    if (!obs_melt_seeded_) {
        seedMeltFractions();
        return;
    }
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (!element_[i])
            continue;
        double prev = obs_melt_prev_[i];
        double now = element_[i]->meltFraction();
        if (prev <= 0.0 && now > 0.0)
            obs::emitEvent(obs::EventKind::MeltOnset, obs_clock_,
                           obsName(names_[i]), now,
                           static_cast<std::int64_t>(i));
        if (prev < 1.0 && now >= 1.0)
            obs::emitEvent(obs::EventKind::MeltComplete, obs_clock_,
                           obsName(names_[i]), now,
                           static_cast<std::int64_t>(i));
        if (prev > 0.0 && now <= 0.0)
            obs::emitEvent(obs::EventKind::MeltRefrozen, obs_clock_,
                           obsName(names_[i]), now,
                           static_cast<std::int64_t>(i));
        obs_melt_prev_[i] = now;
    }
}

void
ServerThermalNetwork::setEnthalpies(const std::vector<double> &h)
{
    require(h.size() == state_.size(),
            "setEnthalpies: size mismatch (got " +
                std::to_string(h.size()) + ", have " +
                std::to_string(state_.size()) + " nodes)");
    state_ = h;
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (element_[i])
            element_[i]->setEnthalpy(state_[i]);
    }
    // External state replacement (checkpoint restore) is not a
    // simulated transition; re-snapshot before the next advance.
    obs_melt_seeded_ = false;
}

void
ServerThermalNetwork::solveSteadyState()
{
    // Gauss-Seidel on the per-node balances interleaved with air
    // walks.  Converges fast because air-to-node coupling dominates.
    const std::size_t n = names_.size();
    std::vector<double> t;
    nodeTemps(state_, t);

    std::vector<double> t_walk, t_mixed, t_local;
    for (int iter = 0; iter < 500; ++iter) {
        // Convert temps back to enthalpies for the walk, which reads
        // the temperatures of those enthalpies (not t itself: the
        // round trip through a PCM curve need not be exact).
        for (std::size_t i = 0; i < n; ++i) {
            state_[i] = element_[i]
                ? element_[i]->activeCurve().enthalpyAt(t[i])
                : capacity_[i] * t[i];
        }
        nodeTemps(state_, t_walk);
        airWalk(t_walk, t_mixed, t_local);
        double max_delta = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            double ua = uaAt(i, t[i], t_local[zone_[i]]);
            double num = power_[i] + ua * t_local[zone_[i]];
            double den = ua;
            for (const auto &link : links_) {
                if (link.a == static_cast<int>(i)) {
                    num += link.conductance * t[link.b];
                    den += link.conductance;
                } else if (link.b == static_cast<int>(i)) {
                    num += link.conductance * t[link.a];
                    den += link.conductance;
                }
            }
            invariant(den > 0.0, "solveSteadyState: node with no "
                      "air coupling and no conduction links");
            double t_new = num / den;
            max_delta = std::max(max_delta, std::abs(t_new - t[i]));
            t[i] = t_new;
        }
        if (max_delta < 1e-9)
            break;
    }
    for (std::size_t i = 0; i < n; ++i) {
        state_[i] = element_[i]
            ? element_[i]->activeCurve().enthalpyAt(t[i])
            : capacity_[i] * t[i];
        if (element_[i])
            element_[i]->setEnthalpy(state_[i]);
    }
    obs_melt_seeded_ = false;
}

double
ServerThermalNetwork::nodeTemperature(int node) const
{
    require(node >= 0 && node < static_cast<int>(names_.size()),
            "nodeTemperature: bad node id");
    return tempOf(node, state_[node]);
}

double
ServerThermalNetwork::nodeEnthalpy(int node) const
{
    require(node >= 0 && node < static_cast<int>(names_.size()),
            "nodeEnthalpy: bad node id");
    return state_[node];
}

double
ServerThermalNetwork::zoneAirTemp(std::size_t zone) const
{
    require(zone <= zone_count_, "zoneAirTemp: zone out of range");
    nodeTemps(state_, t_node_scratch_);
    airWalk(t_node_scratch_, t_mixed_scratch_, t_local_scratch_);
    if (zone == zone_count_)
        return t_mixed_scratch_[zone_count_];
    return t_local_scratch_[zone];
}

double
ServerThermalNetwork::zoneMixedTemp(std::size_t zone) const
{
    require(zone <= zone_count_, "zoneMixedTemp: zone out of range");
    nodeTemps(state_, t_node_scratch_);
    airWalk(t_node_scratch_, t_mixed_scratch_, t_local_scratch_);
    return t_mixed_scratch_[zone];
}

double
ServerThermalNetwork::outletTemp() const
{
    return zoneMixedTemp(zone_count_);
}

double
ServerThermalNetwork::airHeatRate() const
{
    double mcp = airflow_.massFlow() * units::airSpecificHeat;
    return mcp * (outletTemp() - inlet_temp_);
}

double
ServerThermalNetwork::totalInputPower() const
{
    double total = 0.0;
    for (double p : power_)
        total += p;
    for (double p : direct_air_power_)
        total += p;
    return total;
}

const std::string &
ServerThermalNetwork::nodeName(int node) const
{
    require(node >= 0 && node < static_cast<int>(names_.size()),
            "nodeName: bad node id");
    return names_[node];
}

int
ServerThermalNetwork::findNode(const std::string &name) const
{
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name)
            return static_cast<int>(i);
    }
    return -1;
}

void
advanceNetworks(const std::vector<ServerThermalNetwork *> &nets,
                double dt_total, double dt_step)
{
    // Below this, per-region thread recruitment costs more than the
    // integration itself (a resilience arm has two networks).
    constexpr std::size_t kMinParallel = 4;
    for (const ServerThermalNetwork *net : nets)
        require(net != nullptr, "advanceNetworks: null network");
    if (nets.size() < kMinParallel) {
        for (ServerThermalNetwork *net : nets)
            net->advance(dt_total, dt_step);
        return;
    }
    exec::parallel_for_index(nets.size(), [&](std::size_t i) {
        nets[i]->advance(dt_total, dt_step);
    });
}

} // namespace thermal
} // namespace tts

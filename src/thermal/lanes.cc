/**
 * @file
 * The lane kernel: ServerThermalNetwork::advanceLanes.
 *
 * Fleet rows of one platform archetype share one network topology, so
 * up to kLanes of them can take their guarded RK4 first attempt as
 * lanes of one kernel.  Every array is laid out [node][lane] (or
 * [zone][lane]), and every loop over the lanes repeats one scalar
 * operation of advance() per lane, in the scalar kernel's order: the
 * node temperatures, the air walk zone by zone over the CSR node
 * order, the node balances, the links in link order, the energy
 * accumulator, the RK4 stages and update, the per-step finite check
 * and the energy audit.  IEEE arithmetic makes each of those exact
 * per lane, so a lane ends bit for bit where advance() would.  The
 * loops are plain fixed-width loops, which the compiler vectorizes at
 * the default flags; src/CMakeLists.txt builds with
 * -ffp-contract=off so no target may fuse this kernel and the scalar
 * one differently.
 *
 * The kernel only computes.  The commit, lane by lane in the caller's
 * order, replays advance()'s bookkeeping: obs melt-fraction seeding,
 * guard counters, the state, the PCM element sync, the obs clock and
 * the melt events.  A lane that advance() would not send through its
 * first attempt, or whose attempt trips (a non-finite temperature or
 * state, an audit residual over tolerance), runs advance() itself at
 * its place: the retry ladder stays scalar.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs.hh"
#include "thermal/network.hh"
#include "util/error.hh"
#include "util/units.hh"

namespace tts {
namespace thermal {

namespace {

constexpr std::size_t W = ServerThermalNetwork::kLanes;

/**
 * Fewest networks worth a kernel pass.  A pass costs about the same
 * with one live lane as with eight.  On 1U paper-wax rows stepped
 * advance(60, 15) with setLoad, a pass with two live lanes measured
 * 5.9 us against 2 x 2.3 us scalar, and one with three 6.3 us against
 * 3 x 2.4 us.
 */
constexpr std::size_t kMinLanes = 3;

/** One value per lane. */
using Lanes = std::array<double, W>;

/**
 * One lane call's arrays: the shared topology, each lane's parameters
 * and state, and the rhs scratch.  Sized to the topology by every
 * call; a thread's next call of the same size allocates nothing.
 */
struct LaneScratch
{
    // Topology, taken from lane 0.
    std::size_t nodes = 0;
    std::size_t zones = 0;
    std::vector<std::size_t> zoneOffsets; //!< CSR offsets.
    std::vector<std::size_t> zoneIds;     //!< CSR node ids.
    std::vector<char> derate;             //!< Air-coupled PCM node.
    std::vector<std::size_t> pcmNodes;    //!< Node id per PCM slot.
    std::size_t points = 0;               //!< Curve points per slot.
    std::vector<ConductionLink> links;

    // Parameters, [node][lane], [zone][lane] or [pcm slot * points +
    // k][lane].
    std::vector<Lanes> capacity, uaBase, power, freeze;
    std::vector<Lanes> directAir, plumeGain;
    std::vector<Lanes> curveX, curveY;
    Lanes inlet{}, mcp{}, auditAtol{}, auditRtol{};

    // State [entry][lane], entry `nodes` the energy accumulator, and
    // the RK4 stages.
    std::vector<Lanes> h, k1, k2, k3, k4, tmp;
    // rhs scratch: node temperatures and node-to-air heat.
    std::vector<Lanes> temp, heat;

    /**
     * Sum of x - x over every temperature and state the scalar kernel
     * checks: 0 while all are finite, NaN from the first inf or NaN.
     */
    Lanes poison{};
    /** Audit residual magnitude and trip flag per lane. */
    Lanes residual{};
    std::array<bool, W> tripped{};

    void size(std::size_t n, std::size_t z, std::size_t pcm,
              std::size_t pts)
    {
        nodes = n;
        zones = z;
        points = pts;
        for (std::vector<Lanes> *v :
             {&capacity, &uaBase, &power, &freeze, &temp, &heat})
            v->resize(n);
        for (std::vector<Lanes> *v : {&h, &k1, &k2, &k3, &k4, &tmp})
            v->resize(n + 1);
        directAir.resize(z);
        plumeGain.resize(z);
        curveX.resize(pcm * pts);
        curveY.resize(pcm * pts);
    }
};

thread_local LaneScratch tl_scratch;

/**
 * PiecewiseLinear::inverse of every lane's curve at y, as per-lane
 * selects over the segments: the last segment whose left ordinate is
 * <= y (upper_bound - 1), then the two clamps and NaN in the scalar's
 * precedence.  @p x and @p yk are this slot's `points` rows.
 */
inline void
inverseLanes(const Lanes *x, const Lanes *yk, std::size_t points,
             const Lanes &y, Lanes &out)
{
    Lanes x0 = x[0], y0 = yk[0], x1 = x[1], y1 = yk[1];
    for (std::size_t k = 1; k + 1 < points; ++k) {
        for (std::size_t l = 0; l < W; ++l) {
            const bool in = yk[k][l] <= y[l];
            x0[l] = in ? x[k][l] : x0[l];
            y0[l] = in ? yk[k][l] : y0[l];
            x1[l] = in ? x[k + 1][l] : x1[l];
            y1[l] = in ? yk[k + 1][l] : y1[l];
        }
    }
    const Lanes &front_x = x[0], &front_y = yk[0];
    const Lanes &back_x = x[points - 1], &back_y = yk[points - 1];
    for (std::size_t l = 0; l < W; ++l) {
        const double t = (y[l] - y0[l]) / (y1[l] - y0[l]);
        double r = x0[l] + t * (x1[l] - x0[l]);
        r = std::isnan(y[l]) ? y[l] : r;
        r = y[l] >= back_y[l] ? back_x[l] : r;
        out[l] = y[l] <= front_y[l] ? front_x[l] : r;
    }
}

/** ServerThermalNetwork::rhs plus the energy accumulator, per lane. */
void
rhsLanes(LaneScratch &s, const std::vector<Lanes> &hin,
         std::vector<Lanes> &dh)
{
    const std::size_t n = s.nodes;
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t l = 0; l < W; ++l)
            s.temp[i][l] = hin[i][l] / s.capacity[i][l];
    for (std::size_t p = 0; p < s.pcmNodes.size(); ++p) {
        const std::size_t i = s.pcmNodes[p];
        inverseLanes(&s.curveX[p * s.points], &s.curveY[p * s.points],
                     s.points, hin[i], s.temp[i]);
    }

    // The air walk.
    Lanes mixed = s.inlet;
    Lanes rise{};
    for (std::size_t z = 0; z < s.zones; ++z) {
        Lanes local, q;
        for (std::size_t l = 0; l < W; ++l) {
            local[l] = mixed[l] + s.plumeGain[z][l] * rise[l];
            q[l] = s.directAir[z][l];
        }
        for (std::size_t k = s.zoneOffsets[z]; k < s.zoneOffsets[z + 1];
             ++k) {
            const std::size_t i = s.zoneIds[k];
            const Lanes &tn = s.temp[i];
            const Lanes &ua0 = s.uaBase[i];
            Lanes &heat = s.heat[i];
            if (s.derate[i]) {
                const Lanes &ff = s.freeze[i];
                for (std::size_t l = 0; l < W; ++l) {
                    s.poison[l] += tn[l] - tn[l];
                    const double ua =
                        tn[l] > local[l] ? ua0[l] * ff[l] : ua0[l];
                    heat[l] = ua * (tn[l] - local[l]);
                    q[l] += heat[l];
                }
            } else {
                for (std::size_t l = 0; l < W; ++l) {
                    s.poison[l] += tn[l] - tn[l];
                    heat[l] = ua0[l] * (tn[l] - local[l]);
                    q[l] += heat[l];
                }
            }
        }
        for (std::size_t l = 0; l < W; ++l) {
            rise[l] = q[l] / s.mcp[l];
            mixed[l] = mixed[l] + rise[l];
        }
    }

    // The node balances read the walk's heat: the scalar kernel's
    // second uaAt(i, t, t_air) * (t - t_air) has the same operands.
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t l = 0; l < W; ++l)
            dh[i][l] = s.power[i][l] - s.heat[i][l];
    for (const ConductionLink &link : s.links) {
        const Lanes &ta = s.temp[link.a];
        const Lanes &tb = s.temp[link.b];
        for (std::size_t l = 0; l < W; ++l) {
            const double q = link.conductance * (ta[l] - tb[l]);
            dh[link.a][l] -= q;
            dh[link.b][l] += q;
        }
    }
    Lanes sum{};
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t l = 0; l < W; ++l)
            sum[l] += dh[i][l];
    dh[n] = sum;
}

/** @return tmp = h + c * k over every entry and lane. */
void
stage(const std::vector<Lanes> &h, double c,
      const std::vector<Lanes> &k, std::vector<Lanes> &tmp)
{
    for (std::size_t i = 0; i < h.size(); ++i)
        for (std::size_t l = 0; l < W; ++l)
            tmp[i][l] = h[i][l] + c * k[i][l];
}

/**
 * integrate(RungeKutta4, ...) from 0 to dtTotal, every lane at once,
 * then the energy audit.
 *
 * @return The steps taken, or 0 when the step underflows (the scalar
 *         integrate() throws there, so every lane goes scalar).
 */
std::uint64_t
integrateLanes(LaneScratch &s, double dtTotal, double dtStep)
{
    const std::size_t n = s.nodes;
    s.poison.fill(0.0);
    std::uint64_t steps = 0;
    double t = 0.0;
    while (t < dtTotal) {
        const double dt = std::min(dtStep, dtTotal - t);
        if (!(t + dt > t))
            return 0;
        rhsLanes(s, s.h, s.k1);
        stage(s.h, 0.5 * dt, s.k1, s.tmp);
        rhsLanes(s, s.tmp, s.k2);
        stage(s.h, 0.5 * dt, s.k2, s.tmp);
        rhsLanes(s, s.tmp, s.k3);
        stage(s.h, dt, s.k3, s.tmp);
        rhsLanes(s, s.tmp, s.k4);
        const double sixth = dt / 6.0;
        for (std::size_t i = 0; i <= n; ++i) {
            for (std::size_t l = 0; l < W; ++l) {
                s.h[i][l] += sixth * (s.k1[i][l] + 2.0 * s.k2[i][l] +
                                      2.0 * s.k3[i][l] + s.k4[i][l]);
                s.poison[l] += s.h[i][l] - s.h[i][l];
            }
        }
        t += dt;
        if (dtTotal - t <= dtStep * 1e-12)
            t = dtTotal;
        ++steps;
    }

    // checkAttempt's audit.
    for (std::size_t l = 0; l < W; ++l) {
        double h_sum = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            h_sum += s.h[i][l];
        const double e_acc = s.h[n][l];
        const double scale = s.auditAtol[l] +
            s.auditRtol[l] * (std::abs(h_sum) + std::abs(e_acc));
        s.residual[l] = std::abs(h_sum - e_acc);
        s.tripped[l] = !(s.poison[l] == 0.0) || s.residual[l] > scale;
    }
    return steps;
}

} // namespace

/** advanceLanes' access to the networks it packs and commits. */
struct LaneCall
{
    using Net = ServerThermalNetwork;

    /** @return True when advance() would take the guarded attempt. */
    static bool takesFirstAttempt(const Net &net)
    {
        if (!net.guard_config_.enabled || net.guard_corruptor_ ||
            !net.kernel_cache_)
            return false;
        if (!(net.airflow_.massFlow() * units::airSpecificHeat > 0.0))
            return false;
        for (const pcm::PcmElement *e : net.element_) {
            if (!e)
                continue;
            const PiecewiseLinear &c = e->activeCurve().breakpoints();
            if (c.size() < 2 || !c.strictlyIncreasing())
                return false;
        }
        return true;
    }

    static void requireSameTopology(const Net &a, const Net &b,
                                    std::size_t lane)
    {
        bool same = a.zone_count_ == b.zone_count_ &&
            a.names_.size() == b.names_.size() &&
            a.zone_ == b.zone_ && a.air_coupled_ == b.air_coupled_ &&
            a.links_.size() == b.links_.size();
        for (std::size_t i = 0; same && i < a.element_.size(); ++i)
            same = (a.element_[i] == nullptr) == (b.element_[i] == nullptr);
        for (std::size_t k = 0; same && k < a.links_.size(); ++k)
            same = a.links_[k].a == b.links_[k].a &&
                a.links_[k].b == b.links_[k].b &&
                a.links_[k].conductance == b.links_[k].conductance;
        if (!same)
            fatal("ServerThermalNetwork::advanceLanes: network " +
                  std::to_string(lane) +
                  " differs in topology from network 0");
    }

    /** @return The most breakpoints of any PCM curve of @p net. */
    static std::size_t curvePoints(const Net &net)
    {
        std::size_t points = 0;
        for (const pcm::PcmElement *e : net.element_)
            if (e)
                points = std::max(
                    points, e->activeCurve().breakpoints().size());
        return points;
    }

    /**
     * Lay out the topology of @p net, which every lane shares, with
     * room for @p points breakpoints per PCM curve.
     */
    static void packTopology(const Net &net, std::size_t points,
                             LaneScratch &s)
    {
        net.refreshKernelCaches();
        std::size_t pcm = 0;
        for (const pcm::PcmElement *e : net.element_)
            pcm += e != nullptr;
        s.size(net.names_.size(), net.zone_count_, pcm, points);
        s.zoneOffsets.assign(net.zone_offsets_.begin(),
                             net.zone_offsets_.end());
        s.zoneIds.assign(net.zone_node_ids_.begin(),
                         net.zone_node_ids_.end());
        s.links.assign(net.links_.begin(), net.links_.end());
        s.derate.resize(s.nodes);
        s.pcmNodes.clear();
        for (std::size_t i = 0; i < s.nodes; ++i) {
            s.derate[i] = net.element_[i] && net.air_coupled_[i];
            if (net.element_[i])
                s.pcmNodes.push_back(i);
        }
    }

    /** Copy @p net's parameters and state into lane @p l. */
    static void packLane(const Net &net, LaneScratch &s, std::size_t l)
    {
        net.refreshKernelCaches();
        const std::size_t n = s.nodes;
        double h0_sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const pcm::PcmElement *e = net.element_[i];
            // A PCM node's temperature is its curve's; 1 keeps the
            // unused quotient finite.
            s.capacity[i][l] = e ? 1.0 : net.capacity_[i];
            s.uaBase[i][l] = net.ua_base_[i];
            s.power[i][l] = net.power_[i];
            s.freeze[i][l] = e ? e->freezeConductanceFactor() : 1.0;
            s.h[i][l] = net.state_[i];
            h0_sum += net.state_[i];
        }
        s.h[n][l] = h0_sum;
        for (std::size_t z = 0; z < s.zones; ++z) {
            s.directAir[z][l] = net.direct_air_power_[z];
            s.plumeGain[z][l] = 1.0 / net.plume_fraction_[z] - 1.0;
        }
        for (std::size_t p = 0; p < s.pcmNodes.size(); ++p) {
            const PiecewiseLinear &c =
                net.element_[s.pcmNodes[p]]->activeCurve().breakpoints();
            // A shorter curve repeats its last point: y never selects
            // a segment past its own last breakpoint.
            for (std::size_t k = 0; k < s.points; ++k) {
                const std::size_t j = std::min(k, c.size() - 1);
                s.curveX[p * s.points + k][l] = c.xs()[j];
                s.curveY[p * s.points + k][l] = c.ys()[j];
            }
        }
        s.inlet[l] = net.inlet_temp_;
        s.mcp[l] = net.airflow_.massFlow() * units::airSpecificHeat;
        s.auditAtol[l] = net.guard_config_.auditAtolJ;
        s.auditRtol[l] = net.guard_config_.auditRtol;
    }

    /** Fill an unused lane with lane 0's inputs. */
    static void padLane(LaneScratch &s, std::size_t l)
    {
        for (std::vector<Lanes> *v :
             {&s.capacity, &s.uaBase, &s.power, &s.freeze, &s.h,
              &s.directAir, &s.plumeGain, &s.curveX, &s.curveY})
            for (Lanes &x : *v)
                x[l] = x[0];
        for (Lanes *x : {&s.inlet, &s.mcp, &s.auditAtol, &s.auditRtol})
            (*x)[l] = (*x)[0];
    }

    /** advance()'s bookkeeping after a first attempt that passed. */
    static void commit(Net &net, const LaneScratch &s, std::size_t l,
                       std::uint64_t steps, double dtTotal)
    {
        if (obs::enabled() && !net.obs_melt_seeded_)
            net.seedMeltFractions();
        guard::GuardCounters &c = net.guard_counters_;
        ++c.advances;
        ++c.audits;
        if (s.residual[l] > c.worstResidualJ) {
            c.worstResidualJ = s.residual[l];
            c.worstResidualTimeS = dtTotal;
        }
        c.steps += steps;
        for (std::size_t i = 0; i < s.nodes; ++i)
            net.state_[i] = s.h[i][l];
        for (std::size_t i = 0; i < s.nodes; ++i) {
            if (net.element_[i])
                net.element_[i]->setEnthalpy(net.state_[i]);
        }
        net.obs_clock_ += dtTotal;
        if (obs::enabled())
            net.emitThermalEvents(steps);
        else
            net.obs_melt_seeded_ = false;
    }

    static void run(std::span<Net *const> nets, double dtTotal,
                    double dtStep)
    {
        for (std::size_t i = 0; i < nets.size(); ++i) {
            for (std::size_t j = 0; j < i; ++j)
                if (nets[j] == nets[i])
                    fatal("ServerThermalNetwork::advanceLanes: network " +
                          std::to_string(i) + " repeats network " +
                          std::to_string(j));
            if (i > 0)
                requireSameTopology(*nets[0], *nets[i], i);
        }
        // advance() rejects or skips these intervals before any
        // attempt; let it, network by network.
        const bool attempt = dtTotal > 0.0 && dtStep > 0.0;
        LaneScratch &s = tl_scratch;
        std::size_t pos = 0;
        while (pos < nets.size()) {
            // Gather up to W networks that take the first attempt;
            // the others between them run advance() in order.
            std::array<std::size_t, W> lane_of{};
            std::size_t lanes = 0;
            std::size_t end = pos;
            for (; end < nets.size() && lanes < W; ++end)
                if (attempt && takesFirstAttempt(*nets[end]))
                    lane_of[lanes++] = end;
            std::uint64_t steps = 0;
            if (lanes >= kMinLanes) {
                obs::Scope profile("thermal.lanes");
                std::size_t points = 0;
                for (std::size_t l = 0; l < lanes; ++l)
                    points = std::max(points,
                                      curvePoints(*nets[lane_of[l]]));
                packTopology(*nets[lane_of[0]], points, s);
                for (std::size_t l = 0; l < lanes; ++l)
                    packLane(*nets[lane_of[l]], s, l);
                for (std::size_t l = lanes; l < W; ++l)
                    padLane(s, l);
                steps = integrateLanes(s, dtTotal, dtStep);
            }
            std::size_t l = 0;
            for (std::size_t i = pos; i < end; ++i) {
                if (steps > 0 && l < lanes && lane_of[l] == i &&
                    !s.tripped[l])
                    commit(*nets[i], s, l, steps, dtTotal);
                else
                    nets[i]->advance(dtTotal, dtStep);
                if (l < lanes && lane_of[l] == i)
                    ++l;
            }
            pos = end;
        }
    }
};

void
ServerThermalNetwork::advanceLanes(
    std::span<ServerThermalNetwork *const> nets, double dtTotal,
    double dtStep)
{
    LaneCall::run(nets, dtTotal, dtStep);
}

} // namespace thermal
} // namespace tts

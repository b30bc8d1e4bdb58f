/**
 * @file
 * The lane kernel (ServerThermalNetwork::advanceLanes) against its
 * oracle, scalar advance() on each network in order.
 *
 * Two identical sets of servers take the same control steps, one
 * network by network, one through advanceLanes; after every step each
 * lane's enthalpies, PCM thermal state, guard counters and obs clock
 * must match its scalar twin bit for bit.  The lanes differ in
 * utilization, inlet, fan speed (a fan pinned to the DVFS floor) and
 * supercooling, on every fleet platform with a wax bay, a placebo bay
 * and no bay, at 1 to 9 networks per call.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "guard/numerics.hh"
#include "obs/obs.hh"
#include "server/server_model.hh"
#include "server/server_spec.hh"
#include "thermal/network.hh"
#include "util/error.hh"

namespace tts {
namespace thermal {
namespace {

using server::ServerModel;
using server::ServerSpec;
using server::WaxConfig;
using Models = std::vector<std::unique_ptr<ServerModel>>;

/** Control step (s) and RK4 step (s) of a fleet row. */
constexpr double kControlS = 60.0;
constexpr double kThermalS = 15.0;

/** The supercooled lane of a set, when it has that many. */
constexpr std::size_t kSupercooledLane = 5;
/** The lane whose fan is pinned to the DVFS floor. */
constexpr std::size_t kPinnedLane = 2;

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** The set's wax for lane @p k: one lane supercools. */
WaxConfig
laneWax(const WaxConfig &wax, std::size_t k)
{
    WaxConfig w = wax;
    if (k == kSupercooledLane && w.mode == WaxConfig::Mode::Wax)
        w.supercoolingC = 1.5;
    return w;
}

Models
makeSet(const ServerSpec &spec, const WaxConfig &wax, std::size_t count)
{
    Models m;
    for (std::size_t k = 0; k < count; ++k) {
        m.push_back(std::make_unique<ServerModel>(spec, laneWax(wax, k)));
        m.back()->network().setObsLabel("lane" + std::to_string(k));
    }
    return m;
}

/**
 * Set lane @p k for control step @p step as a fleet row is set: its
 * own utilization and inlet, the pinned lane at the DVFS floor.  The
 * supercooled lane runs hot enough to melt through and cool enough
 * afterwards to take its freezing branch.
 */
void
setLane(ServerModel &m, std::size_t k, int step)
{
    const double day = step * kControlS / 86400.0;
    double u = 0.5 + 0.45 * std::sin(6.283185307179586 * (day + 0.07 * k));
    double inlet = 24.0 + 0.5 * static_cast<double>(k);
    if (k == kSupercooledLane) {
        u = step < 300 ? 1.0 : 0.05;
        inlet = step < 300 ? 30.0 : 18.0;
    }
    const double freq =
        k == kPinnedLane ? m.spec().cpu.minFreqGHz : 0.0;
    m.setLoad(std::min(std::max(u, 0.0), 1.0), freq);
    m.network().setInletTemp(inlet);
    m.network().setObsClock(step * kControlS);
}

std::vector<ServerThermalNetwork *>
networks(Models &m)
{
    std::vector<ServerThermalNetwork *> nets;
    for (auto &s : m)
        nets.push_back(&s->network());
    return nets;
}

/** Put the wax node of @p m at enthalpy @p h (J). */
void
setWaxEnthalpy(ServerModel &m, double h)
{
    std::vector<double> state = m.network().enthalpies();
    state[static_cast<std::size_t>(m.network().findNode("wax"))] = h;
    m.network().setEnthalpies(state);
}

/** Lane @p k of @p lanes against its scalar twin, field by field. */
testing::AssertionResult
sameLane(const ServerModel &scalar, const ServerModel &lanes,
         std::size_t k)
{
    const ServerThermalNetwork &a = scalar.network();
    const ServerThermalNetwork &b = lanes.network();
    auto fail = [k]() {
        return testing::AssertionFailure() << "lane " << k << ": ";
    };
    const std::vector<double> &ha = a.enthalpies();
    const std::vector<double> &hb = b.enthalpies();
    if (ha.size() != hb.size())
        return fail() << "node count";
    for (std::size_t i = 0; i < ha.size(); ++i)
        if (!sameBits(ha[i], hb[i]))
            return fail() << "enthalpy " << i << ": " << ha[i]
                          << " != " << hb[i];
    if (scalar.wax()) {
        const pcm::PcmElement::ThermalState sa =
            scalar.wax()->thermalState();
        const pcm::PcmElement::ThermalState sb =
            lanes.wax()->thermalState();
        if (!sameBits(sa.enthalpyJ, sb.enthalpyJ) ||
            sa.freezingBranch != sb.freezingBranch ||
            sa.wasMelted != sb.wasMelted || sa.cycles != sb.cycles)
            return fail() << "PCM thermal state";
    }
    const guard::GuardCounters &ca = a.guardCounters();
    const guard::GuardCounters &cb = b.guardCounters();
    if (ca.advances != cb.advances || ca.steps != cb.steps ||
        ca.audits != cb.audits || ca.sentinelTrips != cb.sentinelTrips ||
        ca.auditTrips != cb.auditTrips || ca.retries != cb.retries ||
        ca.fallbacks != cb.fallbacks ||
        !sameBits(ca.worstResidualJ, cb.worstResidualJ) ||
        !sameBits(ca.worstResidualTimeS, cb.worstResidualTimeS))
        return fail() << "guard counters";
    if (!sameBits(a.obsClock(), b.obsClock()))
        return fail() << "obs clock";
    return testing::AssertionSuccess();
}

testing::AssertionResult
sameSets(const Models &scalar, const Models &lanes)
{
    for (std::size_t k = 0; k < scalar.size(); ++k) {
        testing::AssertionResult r = sameLane(*scalar[k], *lanes[k], k);
        if (!r)
            return r;
    }
    return testing::AssertionSuccess();
}

/** One control step of both sets: set, read out, advance. */
void
controlStep(Models &scalar, Models &lanes, int step)
{
    for (std::size_t k = 0; k < scalar.size(); ++k) {
        setLane(*scalar[k], k, step);
        setLane(*lanes[k], k, step);
    }
    for (auto &m : scalar)
        m->advance(kControlS, kThermalS);
    ServerThermalNetwork::advanceLanes(networks(lanes), kControlS,
                                       kThermalS);
}

struct Platform
{
    const char *tag;
    ServerSpec spec;
};

std::vector<Platform>
platforms()
{
    return {{"1u", server::rd330Spec()},
            {"2u", server::x4470Spec()},
            {"ocp", server::openComputeSpec()}};
}

struct Bay
{
    const char *tag;
    WaxConfig wax;
};

std::vector<Bay>
bays()
{
    return {{"wax", WaxConfig::paper()},
            {"placebo", WaxConfig::placebo()},
            {"none", WaxConfig::none()}};
}

TEST(AdvanceLanes, MatchesScalarOnEveryPlatformBayAndCount)
{
    for (const Platform &p : platforms()) {
        for (const Bay &b : bays()) {
            for (std::size_t count = 1; count <= 9; ++count) {
                SCOPED_TRACE(std::string(p.tag) + "/" + b.tag + " x" +
                             std::to_string(count));
                Models scalar = makeSet(p.spec, b.wax, count);
                Models lanes = makeSet(p.spec, b.wax, count);
                for (int step = 0; step < 90; ++step) {
                    controlStep(scalar, lanes, step);
                    ASSERT_TRUE(sameSets(scalar, lanes))
                        << "after step " << step;
                }
            }
        }
    }
}

TEST(AdvanceLanes, SupercooledLaneTakesItsFreezingBranchInStep)
{
    // Two days of 60 s steps: the supercooled lane melts through,
    // switches to its freezing branch and refreezes, while the others
    // follow the diurnal load.
    for (const Platform &p : platforms()) {
        SCOPED_TRACE(p.tag);
        Models scalar = makeSet(p.spec, WaxConfig::paper(), 8);
        Models lanes = makeSet(p.spec, WaxConfig::paper(), 8);
        bool froze = false;
        for (int step = 0; step < 2880; ++step) {
            controlStep(scalar, lanes, step);
            ASSERT_TRUE(sameSets(scalar, lanes)) << "after step " << step;
            froze = froze ||
                lanes[kSupercooledLane]->wax()->onFreezingBranch();
        }
        EXPECT_TRUE(froze);
        EXPECT_GE(lanes[kSupercooledLane]->wax()->cycleCount(), 1u);
    }
}

TEST(AdvanceLanes, PcmLookupAtBreakpointsAndClampsMatchesScalar)
{
    // The per-lane segment selects against PiecewiseLinear::inverse:
    // a wax enthalpy of 0 (the bottom clamp, -40 C), exactly at the
    // solidus and liquidus breakpoints, and far above the top
    // breakpoint (the 200 C clamp).  A NaN lookup only happens on a
    // lane that trips (NaNEnthalpyThrowsWhatScalarThrows).
    for (const Platform &p : platforms()) {
        SCOPED_TRACE(p.tag);
        Models scalar = makeSet(p.spec, WaxConfig::paper(), 8);
        Models lanes = makeSet(p.spec, WaxConfig::paper(), 8);
        const pcm::EnthalpyCurve &c = lanes[0]->wax()->curve();
        const double top = c.breakpoints().ys().back();
        const double at[] = {0.0, c.solidusEnthalpy(),
                             c.liquidusEnthalpy(), top, 2.0 * top};
        for (std::size_t k = 0; k < 5; ++k) {
            setWaxEnthalpy(*scalar[k + 1], at[k]);
            setWaxEnthalpy(*lanes[k + 1], at[k]);
        }
        for (int step = 0; step < 5; ++step) {
            controlStep(scalar, lanes, step);
            ASSERT_TRUE(sameSets(scalar, lanes)) << "after step " << step;
        }
    }
}

TEST(AdvanceLanes, EveryAuditResidualMatchesScalar)
{
    // The worst residual is a running maximum; clearing the counters
    // before each step pins every interval's audit residual, and with
    // it the energy accumulator, bit for bit.
    for (const Platform &p : platforms()) {
        SCOPED_TRACE(p.tag);
        Models scalar = makeSet(p.spec, WaxConfig::paper(), 8);
        Models lanes = makeSet(p.spec, WaxConfig::paper(), 8);
        std::size_t nonzero = 0;
        for (int step = 0; step < 200; ++step) {
            for (Models *set : {&scalar, &lanes})
                for (auto &m : *set)
                    m->network().setGuardCounters(guard::GuardCounters{});
            controlStep(scalar, lanes, step);
            ASSERT_TRUE(sameSets(scalar, lanes)) << "after step " << step;
            for (auto &m : lanes)
                nonzero += m->network().guardCounters().worstResidualJ > 0.0;
        }
        EXPECT_GT(nonzero, 0u);
    }
}

TEST(AdvanceLanes, OneUlpNudgeFailsTheComparison)
{
    // The comparison above is only as good as its resolution.
    Models scalar = makeSet(server::rd330Spec(), WaxConfig::paper(), 8);
    Models lanes = makeSet(server::rd330Spec(), WaxConfig::paper(), 8);
    for (int step = 0; step < 30; ++step)
        controlStep(scalar, lanes, step);
    ASSERT_TRUE(sameSets(scalar, lanes));
    std::vector<double> h = lanes[3]->network().enthalpies();
    h[1] = std::nextafter(h[1], HUGE_VAL);
    lanes[3]->network().setEnthalpies(h);
    EXPECT_FALSE(sameSets(scalar, lanes));
}

TEST(AdvanceLanes, OnceCorruptedLaneRetriesAsItsScalarTwin)
{
    Models scalar = makeSet(server::rd330Spec(), WaxConfig::paper(), 8);
    Models lanes = makeSet(server::rd330Spec(), WaxConfig::paper(), 8);
    auto corrupt = [](std::vector<double> &aug) { aug[0] += 1e9; };
    for (int step = 0; step < 20; ++step) {
        if (step == 10) {
            scalar[3]->network().setGuardTestCorruptor(corrupt);
            lanes[3]->network().setGuardTestCorruptor(corrupt);
        }
        controlStep(scalar, lanes, step);
        ASSERT_TRUE(sameSets(scalar, lanes)) << "after step " << step;
    }
    EXPECT_EQ(lanes[3]->network().guardCounters().retries, 1u);
    EXPECT_EQ(lanes[3]->network().guardCounters().auditTrips, 1u);
    EXPECT_EQ(lanes[2]->network().guardCounters().retries, 0u);
}

/**
 * Two nodes joined by a 30 W/K link, the first relaxing at about
 * 30 / capacity per second: a 15 s RK4 step is unstable above a rate
 * of 0.19/s, a 7.5 s step stable up to 0.37/s.
 */
std::unique_ptr<ServerThermalNetwork>
linkedPair(double capacity)
{
    AirflowModel air(FanCurve{400.0, 0.02}, 0.010, 0.019);
    auto net = std::make_unique<ServerThermalNetwork>(air, 2, 25.0);
    int a = net->addCapacityNode("a", capacity,
                                 ConvectiveCoupling{0.5, 0.53, 0.8}, 0,
                                 40.0);
    int b = net->addCapacityNode("b", 5000.0,
                                 ConvectiveCoupling{5.0, 0.53, 0.8}, 1,
                                 25.0);
    net->addConduction(a, b, 30.0);
    net->setNodePower(a, 20.0);
    return net;
}

TEST(AdvanceLanes, TrippedLaneRetriesAtItsPlaceAsScalar)
{
    // Lane 3 relaxes at about 0.3/s: over two hours its 15 s steps
    // overflow inside the kernel, and advance() retries it at 7.5 s.
    std::vector<std::unique_ptr<ServerThermalNetwork>> scalar, lanes;
    std::vector<ServerThermalNetwork *> nets;
    for (std::size_t k = 0; k < 8; ++k) {
        const double capacity = k == 3 ? 100.0 : 3000.0 + 100.0 * k;
        scalar.push_back(linkedPair(capacity));
        lanes.push_back(linkedPair(capacity));
        nets.push_back(lanes.back().get());
    }
    for (auto &net : scalar)
        net->advance(7200.0, kThermalS);
    ServerThermalNetwork::advanceLanes(nets, 7200.0, kThermalS);
    for (std::size_t k = 0; k < 8; ++k) {
        const guard::GuardCounters &a = scalar[k]->guardCounters();
        const guard::GuardCounters &b = lanes[k]->guardCounters();
        EXPECT_EQ(a.sentinelTrips, b.sentinelTrips) << k;
        EXPECT_EQ(a.retries, b.retries) << k;
        EXPECT_EQ(a.steps, b.steps) << k;
        EXPECT_EQ(a.audits, b.audits) << k;
        EXPECT_TRUE(sameBits(a.worstResidualJ, b.worstResidualJ)) << k;
        for (std::size_t i = 0; i < 2; ++i)
            EXPECT_TRUE(sameBits(scalar[k]->enthalpies()[i],
                                 lanes[k]->enthalpies()[i]))
                << k << "/" << i;
    }
    EXPECT_EQ(lanes[3]->guardCounters().sentinelTrips, 1u);
    EXPECT_EQ(lanes[3]->guardCounters().retries, 1u);
    EXPECT_EQ(lanes[2]->guardCounters().retries, 0u);
}

TEST(AdvanceLanes, NaNEnthalpyThrowsWhatScalarThrows)
{
    Models scalar = makeSet(server::rd330Spec(), WaxConfig::paper(), 8);
    Models lanes = makeSet(server::rd330Spec(), WaxConfig::paper(), 8);
    for (int step = 0; step < 5; ++step)
        controlStep(scalar, lanes, step);
    for (Models *set : {&scalar, &lanes}) {
        std::vector<double> h = (*set)[4]->network().enthalpies();
        h[0] = std::numeric_limits<double>::quiet_NaN();
        (*set)[4]->network().setEnthalpies(h);
    }
    std::vector<std::vector<double>> before;
    for (auto &m : lanes)
        before.push_back(m->network().enthalpies());

    std::string scalar_what, scalar_node;
    for (std::size_t k = 0; k < 8 && scalar_what.empty(); ++k) {
        try {
            scalar[k]->advance(kControlS, kThermalS);
        } catch (const guard::NumericsError &e) {
            scalar_what = e.what();
            scalar_node = e.node();
        }
    }
    ASSERT_FALSE(scalar_what.empty());
    try {
        ServerThermalNetwork::advanceLanes(networks(lanes), kControlS,
                                           kThermalS);
        FAIL() << "advanceLanes returned";
    } catch (const guard::NumericsError &e) {
        EXPECT_EQ(std::string(e.what()), scalar_what);
        EXPECT_EQ(e.node(), scalar_node);
    }
    for (std::size_t k = 0; k < 4; ++k)
        EXPECT_TRUE(sameLane(*scalar[k], *lanes[k], k));
    for (std::size_t k = 5; k < 8; ++k) {
        EXPECT_EQ(lanes[k]->network().enthalpies(), before[k]) << k;
        EXPECT_EQ(lanes[k]->network().guardCounters().advances, 5u) << k;
    }
}

TEST(AdvanceLanes, MixedTopologiesAreAFatalError)
{
    ServerModel wax(server::rd330Spec(), WaxConfig::paper());
    ServerModel bare(server::rd330Spec(), WaxConfig::none());
    ServerModel placebo(server::rd330Spec(), WaxConfig::placebo());
    ServerModel wax2(server::rd330Spec(), WaxConfig::paper());
    const std::vector<double> h = wax.network().enthalpies();
    std::vector<ServerThermalNetwork *> a = {
        &wax.network(), &wax2.network(), &bare.network()};
    EXPECT_THROW(ServerThermalNetwork::advanceLanes(a, 60.0, 15.0),
                 FatalError);
    std::vector<ServerThermalNetwork *> b = {
        &placebo.network(), &wax.network()};
    EXPECT_THROW(ServerThermalNetwork::advanceLanes(b, 60.0, 15.0),
                 FatalError);
    std::vector<ServerThermalNetwork *> twice = {
        &wax.network(), &wax2.network(), &wax.network()};
    EXPECT_THROW(ServerThermalNetwork::advanceLanes(twice, 60.0, 15.0),
                 FatalError);
    // Refused before any network moved.
    EXPECT_EQ(wax.network().enthalpies(), h);
    EXPECT_EQ(wax.network().guardCounters().advances, 0u);
}

TEST(AdvanceLanes, OneUAndOcpPaperWaxShareATopology)
{
    // Different capacities, conductances and curves, one topology: a
    // call that mixes the two platforms matches scalar.
    const ServerSpec specs[] = {server::rd330Spec(),
                                server::openComputeSpec()};
    Models scalar, lanes;
    for (std::size_t k = 0; k < 6; ++k) {
        for (Models *set : {&scalar, &lanes})
            set->push_back(std::make_unique<ServerModel>(
                specs[k % 2], WaxConfig::paper()));
    }
    for (int step = 0; step < 60; ++step) {
        controlStep(scalar, lanes, step);
        ASSERT_TRUE(sameSets(scalar, lanes)) << "after step " << step;
    }
}

TEST(AdvanceLanes, ObsOnEmitsWhatScalarEmits)
{
    // With collection on, each lane seeds and emits its melt events
    // and thermal.advance.* counters as advance() does.
    auto run = [](bool use_lanes) {
        obs::setEnabled(false);
        obs::resetForTest();
        Models set = makeSet(server::rd330Spec(), WaxConfig::paper(), 8);
        // Lane 1's wax starts a joule into its melt and refreezes in
        // the first interval: seeded before that interval, as
        // advance() seeds it, the refreeze is an event.
        setWaxEnthalpy(*set[1],
                       set[1]->wax()->curve().solidusEnthalpy() + 1.0);
        obs::setEnabled(true);
        for (int step = 0; step < 720; ++step) {
            for (std::size_t k = 0; k < set.size(); ++k)
                setLane(*set[k], k, step);
            if (use_lanes) {
                ServerThermalNetwork::advanceLanes(networks(set),
                                                   kControlS, kThermalS);
            } else {
                for (auto &m : set)
                    m->advance(kControlS, kThermalS);
            }
        }
        std::vector<obs::TraceEvent> events = obs::drainEvents();
        const std::uint64_t steps =
            obs::registry().counter("thermal.advance.steps").value();
        const std::uint64_t count =
            obs::registry().counter("thermal.advance.count").value();
        // One kernel pass per control step, or none.
        const std::uint64_t passes =
            obs::profileSnapshot()["thermal.lanes"].calls;
        obs::setEnabled(false);
        obs::resetForTest();
        return std::make_tuple(events, steps, count, passes);
    };
    auto [scalar_events, scalar_steps, scalar_count, scalar_passes] =
        run(false);
    auto [lane_events, lane_steps, lane_count, lane_passes] = run(true);
    EXPECT_EQ(scalar_passes, 0u);
    EXPECT_EQ(lane_passes, 720u);
    EXPECT_EQ(lane_steps, scalar_steps);
    EXPECT_EQ(lane_count, scalar_count);
    EXPECT_EQ(lane_count, 720u * 8u);
    ASSERT_EQ(lane_events.size(), scalar_events.size());
    ASSERT_FALSE(lane_events.empty());
    EXPECT_EQ(lane_events[0].kind, obs::EventKind::MeltRefrozen);
    EXPECT_EQ(lane_events[0].name, "lane1/wax");
    EXPECT_EQ(lane_events[0].timeS, kControlS);
    for (std::size_t e = 0; e < lane_events.size(); ++e) {
        const obs::TraceEvent &a = scalar_events[e];
        const obs::TraceEvent &b = lane_events[e];
        EXPECT_EQ(a.seq, b.seq) << e;
        EXPECT_EQ(a.kind, b.kind) << e;
        EXPECT_EQ(a.name, b.name) << e;
        EXPECT_TRUE(sameBits(a.timeS, b.timeS)) << e;
        EXPECT_TRUE(sameBits(a.value, b.value)) << e;
        EXPECT_EQ(a.target, b.target) << e;
    }
}

} // namespace
} // namespace thermal
} // namespace tts

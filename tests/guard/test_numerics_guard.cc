/** @file Tests for the guarded thermal advance (audit + retry). */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "guard/numerics.hh"
#include "pcm/material.hh"
#include "pcm/pcm_element.hh"
#include "thermal/network.hh"
#include "util/error.hh"

namespace tts {
namespace thermal {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

AirflowModel
testAirflow()
{
    FanCurve fan{400.0, 0.02};
    return AirflowModel(fan, 0.010, 0.019);
}

ConvectiveCoupling
coupling(double ua0)
{
    return ConvectiveCoupling{ua0, 0.53, 0.8};
}

/** Two-node network under constant power, ready to advance. */
ServerThermalNetwork
testNetwork()
{
    ServerThermalNetwork net(testAirflow(), 2, 25.0);
    int cpu = net.addCapacityNode("cpu", 500.0, coupling(5.0), 0,
                                  25.0);
    int dram = net.addCapacityNode("dram", 800.0, coupling(4.0), 1,
                                   25.0);
    net.setNodePower(cpu, 60.0);
    net.setNodePower(dram, 30.0);
    return net;
}

TEST(NumericsGuard, GuardedAdvanceIsBitIdenticalToUnguarded)
{
    ServerThermalNetwork guarded = testNetwork();
    ServerThermalNetwork bare = testNetwork();
    guard::GuardConfig off;
    off.enabled = false;
    bare.setGuardConfig(off);

    for (int i = 0; i < 20; ++i) {
        guarded.advance(60.0, 1.0);
        bare.advance(60.0, 1.0);
    }
    // The audit rides in an appended accumulator entry; the node
    // entries see the identical arithmetic, so a healthy guarded
    // solve is not merely close to the unguarded one - it is the
    // same to the last bit.
    EXPECT_EQ(guarded.enthalpies(), bare.enthalpies());
}

TEST(NumericsGuard, HealthyRunAuditsEveryIntervalAndNeverTrips)
{
    ServerThermalNetwork net = testNetwork();
    for (int i = 0; i < 5; ++i)
        net.advance(60.0, 1.0);
    const guard::GuardCounters &c = net.guardCounters();
    EXPECT_EQ(c.advances, 5u);
    EXPECT_EQ(c.audits, 5u);
    EXPECT_EQ(c.steps, 300u);  // 60 internal steps per interval.
    EXPECT_EQ(c.sentinelTrips, 0u);
    EXPECT_EQ(c.auditTrips, 0u);
    EXPECT_EQ(c.retries, 0u);
    EXPECT_EQ(c.fallbacks, 0u);
    // The residual of a healthy solve is pure FP rounding, orders of
    // magnitude below the audit tolerance.
    EXPECT_LT(c.worstResidualJ, 1e-3);
    if (c.worstResidualJ == 0.0)
        EXPECT_EQ(c.worstResidualTimeS, -1.0);
    else
        EXPECT_GE(c.worstResidualTimeS, 0.0);
}

TEST(NumericsGuard, NanCorruptionTripsSentinelAndRetries)
{
    ServerThermalNetwork net = testNetwork();
    net.setGuardTestCorruptor(
        [](std::vector<double> &aug) { aug[0] = kNan; },
        /*once=*/true);
    net.advance(60.0, 1.0);  // Must survive via retry.
    const guard::GuardCounters &c = net.guardCounters();
    EXPECT_EQ(c.sentinelTrips, 1u);
    EXPECT_EQ(c.auditTrips, 0u);
    EXPECT_EQ(c.retries, 1u);
    EXPECT_EQ(c.fallbacks, 0u);
    for (double h : net.enthalpies())
        EXPECT_TRUE(std::isfinite(h));
}

TEST(NumericsGuard, FiniteCorruptionTripsTheEnergyAudit)
{
    // A finite-but-wrong state is invisible to NaN checks; only the
    // conservation audit can see it.
    ServerThermalNetwork net = testNetwork();
    net.setGuardTestCorruptor(
        [](std::vector<double> &aug) { aug[0] += 1e12; },
        /*once=*/true);
    net.advance(60.0, 1.0);
    const guard::GuardCounters &c = net.guardCounters();
    EXPECT_EQ(c.auditTrips, 1u);
    EXPECT_EQ(c.sentinelTrips, 0u);
    EXPECT_EQ(c.retries, 1u);
    EXPECT_GE(c.worstResidualJ, 1e11);
}

TEST(NumericsGuard, PersistentCorruptionExhaustsAndNamesTheNode)
{
    ServerThermalNetwork net = testNetwork();
    net.setGuardTestCorruptor(
        [](std::vector<double> &aug) { aug[0] += 1e12; },
        /*once=*/false);
    try {
        net.advance(60.0, 1.0);
        FAIL() << "persistent corruption survived the guard";
    } catch (const guard::NumericsError &e) {
        EXPECT_EQ(e.node(), "cpu");  // Worst-moving node.
        EXPECT_NE(std::string(e.what()).find("retries exhausted"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("cpu"),
                  std::string::npos);
    }
    const guard::GuardCounters &c = net.guardCounters();
    EXPECT_EQ(c.retries,
              static_cast<std::uint64_t>(net.guardConfig().maxRetries));
    EXPECT_EQ(c.fallbacks, 1u);
    // Failed attempts must not leak into the committed state.
    for (double h : net.enthalpies())
        EXPECT_TRUE(std::isfinite(h));
}

TEST(NumericsGuard, AdaptiveFallbackRescuesAfterRetriesExhaust)
{
    ServerThermalNetwork net = testNetwork();
    const std::uint64_t budget = net.guardConfig().maxRetries + 1;
    auto calls = std::make_shared<std::uint64_t>(0);
    net.setGuardTestCorruptor(
        [calls, budget](std::vector<double> &aug) {
            if ((*calls)++ < budget)
                aug[0] = kNan;
        },
        /*once=*/false);
    net.advance(60.0, 1.0);  // Fixed-step attempts all poisoned.
    const guard::GuardCounters &c = net.guardCounters();
    EXPECT_EQ(c.retries,
              static_cast<std::uint64_t>(net.guardConfig().maxRetries));
    EXPECT_EQ(c.fallbacks, 1u);
    EXPECT_EQ(c.sentinelTrips, budget);
    for (double h : net.enthalpies())
        EXPECT_TRUE(std::isfinite(h));
}

TEST(NumericsGuard, ZeroRetriesNoFallbackFailsFast)
{
    ServerThermalNetwork net = testNetwork();
    guard::GuardConfig strict = net.guardConfig();
    strict.maxRetries = 0;
    strict.fallbackAdaptive = false;
    net.setGuardConfig(strict);
    net.setGuardTestCorruptor(
        [](std::vector<double> &aug) { aug[0] = kNan; },
        /*once=*/false);
    EXPECT_THROW(net.advance(60.0, 1.0), guard::NumericsError);
    EXPECT_EQ(net.guardCounters().retries, 0u);
    EXPECT_EQ(net.guardCounters().fallbacks, 0u);
}

TEST(NumericsGuard, AirWalkNamesANonFiniteNode)
{
    ServerThermalNetwork net = testNetwork();
    guard::GuardConfig off;
    off.enabled = false;
    net.setGuardConfig(off);
    std::vector<double> h = net.enthalpies();
    h[1] = kNan;  // "dram"
    net.setEnthalpies(h);
    try {
        net.advance(1.0, 1.0);
        FAIL() << "NaN enthalpy not detected";
    } catch (const guard::NumericsError &e) {
        EXPECT_EQ(e.node(), "dram");
        EXPECT_EQ(e.zone(), 1);
    }
}

TEST(NumericsGuard, AirWalkNamesTheFirstNonFiniteNodeInWalkOrder)
{
    // Ids run against the air here: the rear node is added first.
    // Temperatures are evaluated in id order, but the error names the
    // first bad node the air meets.
    ServerThermalNetwork net(testAirflow(), 2, 25.0);
    net.addCapacityNode("rear", 800.0, coupling(4.0), 1, 25.0);
    net.addCapacityNode("front", 500.0, coupling(5.0), 0, 25.0);
    guard::GuardConfig off;
    off.enabled = false;
    net.setGuardConfig(off);
    net.setEnthalpies({kNan, kNan});
    try {
        net.advance(1.0, 1.0);
        FAIL() << "NaN enthalpy not detected";
    } catch (const guard::NumericsError &e) {
        EXPECT_EQ(e.node(), "front");
        EXPECT_EQ(e.zone(), 0);
    }
}

TEST(NumericsGuard, NanStageEnthalpyAtAPcmNodeIsATypedError)
{
    // Two finite conductances at the largest double tie a wax node
    // to a warmer and a cooler neighbour.  Each link's heat flow
    // overflows to an infinity, one into the wax and one out of it,
    // so the first stage's dH/dt there is inf - inf = NaN and the
    // second stage looks up the wax temperature at a NaN enthalpy.
    // The curve lookup must answer NaN without reading past its
    // breakpoints, and the air walk then names the node.
    ServerThermalNetwork net(testAirflow(), 1, 25.0);
    pcm::BoxSpec box{0.1, 0.08, 0.02};
    pcm::ContainerBank bank(box, 2, 0.019);
    pcm::PcmElement wax(pcm::commercialParaffin(), bank, 40.0, 25.0);
    pcm::PcmElement warm(pcm::commercialParaffin(), bank, 40.0, 30.0);
    pcm::PcmElement cool(pcm::commercialParaffin(), bank, 40.0, 20.0);
    const int a = net.addPcmNode("wax", &wax, 0);
    const int b = net.addPcmNode("warm", &warm, 0);
    const int c = net.addPcmNode("cool", &cool, 0);
    const double huge = std::numeric_limits<double>::max();
    net.addConduction(a, b, huge);
    net.addConduction(a, c, huge);
    guard::GuardConfig off;
    off.enabled = false;
    net.setGuardConfig(off);
    try {
        net.advance(1.0, 1.0);
        FAIL() << "NaN stage enthalpy not detected";
    } catch (const guard::NumericsError &e) {
        EXPECT_EQ(e.node(), "wax");
        EXPECT_EQ(e.zone(), 0);
    }
}

TEST(NumericsGuard, ErrorCarriesDiagnosticFields)
{
    guard::NumericsError e("boom", "cpu", 2, 123.5, -7.25e3, 4);
    EXPECT_EQ(e.node(), "cpu");
    EXPECT_EQ(e.zone(), 2);
    EXPECT_EQ(e.timeS(), 123.5);
    EXPECT_EQ(e.residualJ(), -7.25e3);
    EXPECT_EQ(e.stateIndex(), 4);
    EXPECT_NE(std::string(e.what()).find("boom"),
              std::string::npos);
}

TEST(NumericsGuard, RolledBackAttemptsContributeNoAcceptedSteps)
{
    // Regression: the step counter used to accumulate before the
    // energy audit could reject the attempt, so a tripped interval
    // counted its rolled-back steps on top of the retry's.  An
    // advance(4, 1) whose first attempt trips must report only the
    // 8 accepted retry steps at dt/2 - not 4 + 8.
    ServerThermalNetwork net = testNetwork();
    net.setGuardTestCorruptor(
        [](std::vector<double> &aug) { aug[0] += 1e12; },
        /*once=*/true);
    net.advance(4.0, 1.0);
    const guard::GuardCounters &c = net.guardCounters();
    EXPECT_EQ(c.retries, 1u);
    EXPECT_EQ(c.auditTrips, 1u);
    EXPECT_EQ(c.steps, 8u);
}

TEST(NumericsGuard, DefaultConfigIsProcessWideButOverridable)
{
    guard::GuardConfig saved = guard::defaultGuardConfig();
    guard::GuardConfig custom = saved;
    custom.auditAtolJ = 123.0;
    guard::setDefaultGuardConfig(custom);
    // Networks built after the change pick it up.
    ServerThermalNetwork net = testNetwork();
    EXPECT_EQ(net.guardConfig().auditAtolJ, 123.0);
    guard::setDefaultGuardConfig(saved);
}

} // namespace
} // namespace thermal
} // namespace tts

/** @file Tests for the zone-based server thermal network. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "pcm/material.hh"
#include "pcm/pcm_element.hh"
#include "thermal/network.hh"
#include "util/error.hh"
#include "util/units.hh"

namespace tts {
namespace thermal {
namespace {

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

TEST(ConvectiveCoupling, PowerLawInVelocity)
{
    ConvectiveCoupling c{10.0, 2.0, 0.8};
    EXPECT_DOUBLE_EQ(c.ua(2.0), 10.0);
    EXPECT_NEAR(c.ua(4.0), 10.0 * std::pow(2.0, 0.8), 1e-9);
    EXPECT_GT(c.ua(0.0), 0.0);  // Natural-convection floor.
}

TEST(Network, SingleNodeSteadyState)
{
    ServerThermalNetwork net(testAirflow(), 1, 25.0);
    int n = net.addCapacityNode("cpu", 1000.0, coupling(5.0), 0,
                                25.0);
    net.setNodePower(n, 50.0);
    net.solveSteadyState();
    // T = T_air_local + P / UA; zone 0 local air == inlet.
    double ua = coupling(5.0).ua(net.airflow().ductVelocity());
    EXPECT_NEAR(net.nodeTemperature(n), 25.0 + 50.0 / ua, 1e-6);
}

TEST(Network, SteadyStateOutletBalancesEnergy)
{
    ServerThermalNetwork net(testAirflow(), 3, 25.0);
    int a = net.addCapacityNode("a", 500.0, coupling(3.0), 0, 25.0);
    int b = net.addCapacityNode("b", 800.0, coupling(4.0), 1, 25.0);
    net.setNodePower(a, 60.0);
    net.setNodePower(b, 90.0);
    net.setDirectAirPower(2, 30.0);
    net.solveSteadyState();
    double mcp = net.airflow().massFlow() * units::airSpecificHeat;
    EXPECT_NEAR(net.outletTemp(),
                25.0 + 180.0 / mcp, 1e-6);
    EXPECT_NEAR(net.airHeatRate(), 180.0, 1e-6);
    EXPECT_NEAR(net.totalInputPower(), 180.0, 1e-12);
}

TEST(Network, TransientConservesEnergy)
{
    ServerThermalNetwork net(testAirflow(), 2, 25.0);
    int a = net.addCapacityNode("a", 2000.0, coupling(3.0), 0, 25.0);
    int b = net.addCapacityNode("b", 3000.0, coupling(5.0), 1, 25.0);
    net.setNodePower(a, 100.0);
    net.setNodePower(b, 50.0);

    double h0 = net.nodeEnthalpy(a) + net.nodeEnthalpy(b);
    // Integrate absorbed heat = input - advected, sampled finely.
    double absorbed = 0.0;
    for (int i = 0; i < 600; ++i) {
        double q_air = net.airHeatRate();
        net.advance(1.0, 0.25);
        double q_air2 = net.airHeatRate();
        absorbed += (150.0 - 0.5 * (q_air + q_air2)) * 1.0;
    }
    double h1 = net.nodeEnthalpy(a) + net.nodeEnthalpy(b);
    EXPECT_NEAR(h1 - h0, absorbed, std::abs(absorbed) * 0.01 + 1.0);
}

TEST(Network, TransientApproachesSteadyState)
{
    ServerThermalNetwork net(testAirflow(), 1, 25.0);
    int n = net.addCapacityNode("n", 500.0, coupling(5.0), 0, 25.0);
    net.setNodePower(n, 40.0);

    ServerThermalNetwork ref(testAirflow(), 1, 25.0);
    int rn = ref.addCapacityNode("n", 500.0, coupling(5.0), 0, 25.0);
    ref.setNodePower(rn, 40.0);
    ref.solveSteadyState();

    net.advance(3600.0, 1.0);
    EXPECT_NEAR(net.nodeTemperature(n), ref.nodeTemperature(rn),
                0.01);
}

TEST(Network, DownstreamZonesSeeWarmerAir)
{
    ServerThermalNetwork net(testAirflow(), 3, 25.0);
    int a = net.addCapacityNode("a", 500.0, coupling(5.0), 0, 25.0);
    net.setNodePower(a, 100.0);
    net.solveSteadyState();
    EXPECT_DOUBLE_EQ(net.zoneAirTemp(0), 25.0);
    EXPECT_GT(net.zoneAirTemp(1), 25.0);
    EXPECT_NEAR(net.zoneAirTemp(1), net.zoneAirTemp(2), 1e-9);
}

TEST(Network, PlumeRaisesLocalTemperature)
{
    auto build = [&](double plume) {
        ServerThermalNetwork net(testAirflow(), 3, 25.0);
        int cpu = net.addCapacityNode("cpu", 500.0, coupling(5.0),
                                      1, 25.0);
        net.setNodePower(cpu, 100.0);
        net.setZonePlumeFraction(2, plume);
        net.solveSteadyState();
        return net.zoneAirTemp(2);
    };
    double mixed = build(1.0);
    double plumed = build(0.5);
    EXPECT_GT(plumed, mixed);
}

TEST(Network, PlumeDoesNotChangeEnergyBalance)
{
    auto outlet = [&](double plume) {
        ServerThermalNetwork net(testAirflow(), 3, 25.0);
        int cpu = net.addCapacityNode("cpu", 500.0, coupling(5.0),
                                      1, 25.0);
        net.setNodePower(cpu, 100.0);
        net.setZonePlumeFraction(2, plume);
        net.solveSteadyState();
        return net.airHeatRate();
    };
    EXPECT_NEAR(outlet(1.0), outlet(0.4), 1e-6);
}

TEST(Network, ConductionLinkEqualizesNodes)
{
    ServerThermalNetwork net(testAirflow(), 1, 25.0);
    int hot = net.addCapacityNode("hot", 500.0, coupling(2.0), 0,
                                  25.0);
    int cold = net.addCapacityNode("cold", 500.0, coupling(2.0), 0,
                                   25.0);
    net.setNodePower(hot, 60.0);
    net.addConduction(hot, cold, 10.0);
    net.solveSteadyState();
    // Without the link, cold would sit at the inlet temperature.
    EXPECT_GT(net.nodeTemperature(cold), 26.0);
    EXPECT_GT(net.nodeTemperature(hot), net.nodeTemperature(cold));
}

TEST(Network, PcmNodeMeltsUnderLoad)
{
    AirflowModel airflow = testAirflow();
    ServerThermalNetwork net(airflow, 2, 25.0);
    int cpu = net.addCapacityNode("cpu", 500.0, coupling(6.0), 0,
                                  25.0);
    pcm::BoxSpec box;
    box.lengthM = 0.1;
    box.widthM = 0.08;
    box.heightM = 0.02;
    pcm::ContainerBank bank(box, 2, 0.019);
    pcm::PcmElement wax(pcm::commercialParaffin(), bank, 40.0, 25.0);
    int wn = net.addPcmNode("wax", &wax, 1);
    net.setZonePlumeFraction(1, 0.4);
    net.setNodePower(cpu, 250.0);
    net.advance(4.0 * 3600.0, 1.0);
    EXPECT_GT(wax.meltFraction(), 0.5);
    EXPECT_GT(net.nodeTemperature(wn), 39.0);
    // The element's state is kept in sync with the network.
    EXPECT_DOUBLE_EQ(wax.storedEnthalpy(), net.nodeEnthalpy(wn));
}

TEST(Network, MeltingWaxReducesAirHeatRate)
{
    auto run = [&](bool with_wax) {
        ServerThermalNetwork net(testAirflow(), 2, 25.0);
        int cpu = net.addCapacityNode("cpu", 500.0, coupling(6.0),
                                      0, 25.0);
        net.setNodePower(cpu, 250.0);
        static pcm::BoxSpec box{0.1, 0.08, 0.02};
        static pcm::ContainerBank bank(box, 2, 0.019);
        pcm::PcmElement wax(pcm::commercialParaffin(), bank, 40.0,
                            25.0);
        if (with_wax)
            net.addPcmNode("wax", &wax, 1);
        net.advance(600.0, 1.0);
        // Warm-up done; measure while the wax melts.
        net.advance(1800.0, 1.0);
        return net.airHeatRate();
    };
    EXPECT_LT(run(true), run(false));
}

TEST(Network, AirDecoupledNodeOnlyConducts)
{
    ServerThermalNetwork net(testAirflow(), 1, 25.0);
    int outer = net.addCapacityNode("outer", 500.0, coupling(5.0),
                                    0, 25.0);
    pcm::BoxSpec box{0.1, 0.08, 0.02};
    static pcm::ContainerBank bank(box, 1, 0.019);
    pcm::PcmElement inner(pcm::commercialParaffin(), bank, 45.0,
                          25.0);
    int in = net.addPcmNode("inner", &inner, 0,
                            /*air_coupled=*/false);
    net.addConduction(outer, in, 1.0);
    net.setNodePower(outer, 80.0);
    net.advance(3600.0, 1.0);
    // The inner node warms only through the link, lagging outer.
    EXPECT_GT(net.nodeTemperature(in), 25.5);
    EXPECT_LT(net.nodeTemperature(in), net.nodeTemperature(outer));
}

TEST(Network, SupercooledPcmNodeDelaysReleaseInNetwork)
{
    // Melt two wax nodes fully, then hold the bay air BETWEEN the
    // supercooled plateau (42 C) and the melting plateau (45 C): a
    // plain charge starts freezing there, a supercooled one stays
    // fully liquid.
    auto run = [&](double supercooling) {
        AirflowModel airflow = testAirflow();
        ServerThermalNetwork net(airflow, 2, 25.0);
        int cpu = net.addCapacityNode("cpu", 500.0, coupling(6.0),
                                      0, 25.0);
        pcm::BoxSpec box;
        box.lengthM = 0.1;
        box.widthM = 0.08;
        box.heightM = 0.02;
        pcm::ContainerBank bank(box, 2, 0.019);
        pcm::PcmElement wax(pcm::commercialParaffin(), bank, 45.0,
                            25.0, 0.5, supercooling);
        wax.setFreezeConductanceFactor(1.0);  // Isolate nucleation.
        net.addPcmNode("wax", &wax, 1);
        net.setZonePlumeFraction(1, 0.4);
        net.setNodePower(cpu, 300.0);        // Melt fully.
        net.advance(6.0 * 3600.0, 1.0);
        EXPECT_DOUBLE_EQ(wax.meltFraction(), 1.0)
            << "sc " << supercooling;
        net.setNodePower(cpu, 85.0);         // Bay settles ~43 C.
        net.advance(3.0 * 3600.0, 1.0);
        return wax.meltFraction();
    };
    double plain = run(0.0);
    double supercooled = run(3.0);
    EXPECT_LT(plain, 0.999);                 // Started freezing.
    EXPECT_DOUBLE_EQ(supercooled, 1.0);      // Still liquid.
}

TEST(Network, FindNodeByName)
{
    ServerThermalNetwork net(testAirflow(), 1, 25.0);
    int a = net.addCapacityNode("alpha", 100.0, coupling(1.0), 0,
                                25.0);
    EXPECT_EQ(net.findNode("alpha"), a);
    EXPECT_EQ(net.findNode("missing"), -1);
    EXPECT_EQ(net.nodeName(a), "alpha");
}

TEST(Network, InletTempShiftsEverything)
{
    ServerThermalNetwork net(testAirflow(), 1, 25.0);
    int n = net.addCapacityNode("n", 100.0, coupling(5.0), 0, 25.0);
    net.setNodePower(n, 50.0);
    net.solveSteadyState();
    double t1 = net.nodeTemperature(n);
    net.setInletTemp(35.0);
    net.solveSteadyState();
    EXPECT_NEAR(net.nodeTemperature(n), t1 + 10.0, 1e-6);
}

TEST(ThermalNetwork, NonFiniteInletIsRejectedAtTheSetter)
{
    ServerThermalNetwork net(testAirflow(), 1, 25.0);
    net.addCapacityNode("n", 100.0, coupling(5.0), 0, 25.0);
    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()}) {
        EXPECT_THROW(net.setInletTemp(bad), FatalError) << bad;
        // The rejected value never reached the model.
        EXPECT_EQ(net.inletTemp(), 25.0);
        EXPECT_THROW(ServerThermalNetwork(testAirflow(), 1, bad),
                     FatalError)
            << bad;
    }
    net.advance(60.0, 1.0);
    EXPECT_TRUE(std::isfinite(net.nodeTemperature(0)));
}

TEST(ThermalNetwork, NonFiniteConductanceAndPowerAreRejectedAtTheSetters)
{
    ServerThermalNetwork net(testAirflow(), 1, 25.0);
    int a = net.addCapacityNode("a", 100.0, coupling(5.0), 0, 25.0);
    int b = net.addCapacityNode("b", 100.0, coupling(5.0), 0, 25.0);
    net.setNodePower(a, 40.0);
    net.setDirectAirPower(0, 10.0);
    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity()}) {
        EXPECT_THROW(net.addConduction(a, b, bad), FatalError) << bad;
        EXPECT_THROW(net.setNodePower(a, bad), FatalError) << bad;
        EXPECT_THROW(net.setDirectAirPower(0, bad), FatalError) << bad;
        // The rejected values never reached the model.
        EXPECT_EQ(net.nodePower(a), 40.0);
        EXPECT_EQ(net.directAirPower(0), 10.0);
    }
    net.advance(60.0, 1.0);
    EXPECT_TRUE(std::isfinite(net.nodeTemperature(a)));
    EXPECT_TRUE(std::isfinite(net.nodeTemperature(b)));
}

TEST(Network, RejectsBadConfiguration)
{
    ServerThermalNetwork net(testAirflow(), 2, 25.0);
    EXPECT_THROW(net.addCapacityNode("x", 0.0, coupling(1.0), 0,
                                     25.0),
                 FatalError);
    EXPECT_THROW(net.addCapacityNode("x", 1.0, coupling(1.0), 5,
                                     25.0),
                 FatalError);
    int n = net.addCapacityNode("n", 100.0, coupling(1.0), 0, 25.0);
    EXPECT_THROW(net.setNodePower(n, -1.0), FatalError);
    EXPECT_THROW(net.setNodePower(99, 1.0), FatalError);
    EXPECT_THROW(net.addConduction(n, n, 1.0), FatalError);
    EXPECT_THROW(net.setZonePlumeFraction(0, 0.0), FatalError);
    EXPECT_THROW(net.setZonePlumeFraction(9, 0.5), FatalError);
    EXPECT_THROW(net.setDirectAirPower(7, 1.0), FatalError);
}

} // namespace
} // namespace thermal
} // namespace tts

/** @file Tests for the cooling energy-cost study. */

#include <gtest/gtest.h>

#include "core/energy_cost_study.hh"
#include "datacenter/datacenter.hh"
#include "plant/study.hh"
#include "util/error.hh"
#include "util/units.hh"
#include "workload/google_trace.hh"

namespace tts {
namespace core {
namespace {

class EnergyCostFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        workload::GoogleTraceParams tp;
        tp.durationS = units::days(1.0);
        tp.sampleIntervalS = 900.0;
        auto trace = workload::makeGoogleTrace(tp);
        CoolingConfig opts;
        opts.cluster.controlIntervalS = 900.0;
        opts.cluster.thermalStepS = 15.0;
        study_ = new CoolingStudyResult(
            runCoolingStudy(server::rd330Spec(), trace, opts));
    }

    static void
    TearDownTestSuite()
    {
        delete study_;
        study_ = nullptr;
    }

    static CoolingStudyResult *study_;
};

CoolingStudyResult *EnergyCostFixture::study_ = nullptr;

TEST_F(EnergyCostFixture, CostsArePositiveAndOrdered)
{
    auto r = priceCoolingEnergy(*study_);
    EXPECT_GT(r.flatCostNoWax, 0.0);
    EXPECT_GT(r.flatCostWithWax, 0.0);
    // The economizer always removes joules at least as cheaply as
    // the flat-COP plant.
    EXPECT_LT(r.economizerCostNoWax, r.flatCostNoWax);
    EXPECT_LT(r.economizerCostWithWax, r.flatCostWithWax);
}

TEST_F(EnergyCostFixture, WaxShiftsEnergyToCheaperHours)
{
    // The Figure 1 "power is cheaper off-peak" advantage: with the
    // same total heat, moving part of it to night lowers the bill.
    auto r = priceCoolingEnergy(*study_);
    EXPECT_GT(r.flatSaving(), 0.0);
}

TEST_F(EnergyCostFixture, SavingsScaleWithClusters)
{
    EnergyCostOptions one;
    one.clusters = 1;
    EnergyCostOptions many;
    many.clusters = 50;
    auto a = priceCoolingEnergy(*study_, one);
    auto b = priceCoolingEnergy(*study_, many);
    EXPECT_NEAR(b.flatCostNoWax, 50.0 * a.flatCostNoWax,
                0.01 * b.flatCostNoWax);
}

TEST_F(EnergyCostFixture, FlatTariffRemovesTheSaving)
{
    // With equal peak/off-peak prices and a flat COP, time shifting
    // cannot change the bill (energy is conserved over the cycle).
    EnergyCostOptions opts;
    opts.tuning.tariff.peakPricePerKWh = 0.10;
    opts.tuning.tariff.offPeakPricePerKWh = 0.10;
    auto r = priceCoolingEnergy(*study_, opts);
    EXPECT_NEAR(r.flatSaving(), 0.0,
                0.005 * r.flatCostNoWax);
}

TEST_F(EnergyCostFixture, RejectsBadOptions)
{
    EnergyCostOptions opts;
    opts.tuning.cracCop = 0.0;
    EXPECT_THROW(priceCoolingEnergy(*study_, opts), FatalError);
    opts = EnergyCostOptions{};
    opts.clusters = 0;
    EXPECT_THROW(priceCoolingEnergy(*study_, opts), FatalError);
}

TEST(EnergyCostPin, Rd330CostsAreTheRunPlantYearlyNetCosts)
{
    // The RD330 row of bench/extension_energy_cost: each reported
    // cost must be plant::runPlant's yearly net cost bit for bit,
    // so the study prices cooling through the one plant model.
    const server::ServerSpec spec = server::rd330Spec();
    const CoolingStudyResult study =
        runCoolingStudy(spec, workload::makeGoogleTrace());
    EnergyCostOptions opts;
    opts.clusters = datacenter::Datacenter(spec).clusterCount();
    const EnergyCostResult cost = priceCoolingEnergy(study, opts);

    auto plantCost = [&](plant::BackendKind kind,
                         const TimeSeries &cluster_load) {
        plant::PlantScenario scenario;
        scenario.loadW = cluster_load.scaled(
            static_cast<double>(opts.clusters));
        plant::PlantConfig config;
        config.options.kind = kind;
        return plant::runPlant(scenario, config).yearlyNetCostUsd;
    };
    const TimeSeries &base = study.baseline.coolingLoadW;
    const TimeSeries &wax = study.withWax.coolingLoadW;
    EXPECT_EQ(cost.flatCostNoWax,
              plantCost(plant::BackendKind::Crac, base));
    EXPECT_EQ(cost.flatCostWithWax,
              plantCost(plant::BackendKind::Crac, wax));
    EXPECT_EQ(cost.economizerCostNoWax,
              plantCost(plant::BackendKind::Economizer, base));
    EXPECT_EQ(cost.economizerCostWithWax,
              plantCost(plant::BackendKind::Economizer, wax));
}

} // namespace
} // namespace core
} // namespace tts

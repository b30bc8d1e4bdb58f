/**
 * @file
 * Golden-value regression harness (see core/golden.hh).
 *
 * Recomputes every pinned headline number and diffs it against the
 * checked-in tests/data/golden.json.  A failure here means a code
 * change moved a published result; if the move is intentional,
 * regenerate with `build/tools/tts_golden tests/data/golden.json`
 * and say so in the commit message.
 *
 * Also the determinism suite for tts::exec: the full golden map must
 * be bit-for-bit identical at one and eight threads, regardless of
 * how the per-platform studies interleave.
 */

#include <cmath>
#include <gtest/gtest.h>
#include <map>
#include <string>

#include "core/golden.hh"
#include "exec/parallel.hh"
#include "opt/golden.hh"
#include "plant/golden.hh"
#include "util/kv_json.hh"

#ifndef TTS_GOLDEN_JSON
#error "TTS_GOLDEN_JSON must point at the checked-in golden file"
#endif

using namespace tts;

namespace {

/** Everything tts_golden writes: core plus opt plus plant keys. */
std::map<std::string, double>
computeAll()
{
    std::map<std::string, double> values =
        core::computeGoldenValues();
    auto opt_values = opt::computeOptGoldenValues();
    values.insert(opt_values.begin(), opt_values.end());
    auto plant_values = plant::computePlantGoldenValues();
    values.insert(plant_values.begin(), plant_values.end());
    return values;
}

/** Recompute once and share across tests (the studies take ~4 s). */
const std::map<std::string, double> &
computed()
{
    static const std::map<std::string, double> values = computeAll();
    return values;
}

/**
 * Relative tolerance for one golden key.  Everything is pinned tight;
 * discrete quantities (server/cluster counts, suitability counts)
 * must match exactly since a whole unit of drift is a real change.
 */
double
relToleranceFor(const std::string &key)
{
    if (key.find("clusters") != std::string::npos ||
        key.find("servers") != std::string::npos ||
        key.find("count") != std::string::npos)
        return 0.0;
    return 1e-6;
}

} // namespace

TEST(GoldenValues, MatchesCheckedInFile)
{
    auto golden = readKvJsonFile(TTS_GOLDEN_JSON);
    const auto &now = computed();

    // Key sets must match exactly - a missing or extra key is a
    // schema change that needs a regenerated golden file.
    for (const auto &[key, value] : golden)
        EXPECT_TRUE(now.count(key))
            << "golden key \"" << key << "\" no longer computed";
    for (const auto &[key, value] : now)
        EXPECT_TRUE(golden.count(key))
            << "new value \"" << key << "\" missing from golden file "
            << "(regenerate with tools/tts_golden)";

    for (const auto &[key, expected] : golden) {
        auto it = now.find(key);
        if (it == now.end())
            continue; // already reported above
        double rel = relToleranceFor(key);
        EXPECT_NEAR(it->second, expected,
                    rel * std::abs(expected) + 1e-12)
            << "golden value drifted: " << key;
    }
}

/**
 * The paper's headline claims, held loosely: the golden file pins the
 * reproduction exactly; these bounds document how close it lands to
 * the published numbers and fail if a change walks away from them.
 */
TEST(GoldenValues, PaperHeadlineWindows)
{
    const auto &g = computed();

    // Section 5.1, Figure 11: peak cooling reductions 8.9/12/8.3 %.
    EXPECT_NEAR(g.at("cooling.1u.peak_reduction"), 0.089, 0.015);
    EXPECT_NEAR(g.at("cooling.2u.peak_reduction"), 0.120, 0.015);
    EXPECT_NEAR(g.at("cooling.ocp.peak_reduction"), 0.083, 0.015);

    // Wax recharges daily: 6-9 h windows per day in the paper; our
    // two-day totals land within a generous band of 2x that.
    for (const char *p : {"1u", "2u", "ocp"}) {
        double h =
            g.at(std::string("cooling.") + p + ".resolidify_h");
        EXPECT_GT(h, 4.0) << p;
        EXPECT_LT(h, 20.0) << p;
    }

    // Section 5.1 economics: +4,940/+2,920/+2,770 servers.
    EXPECT_NEAR(g.at("plan.1u.extra_servers"), 4940.0, 500.0);
    EXPECT_NEAR(g.at("plan.2u.extra_servers"), 2920.0, 500.0);
    EXPECT_NEAR(g.at("plan.ocp.extra_servers"), 2770.0, 500.0);
    EXPECT_NEAR(g.at("plan.1u.smaller_plant_savings_per_year"),
                187000.0, 25000.0);
    EXPECT_NEAR(g.at("plan.2u.smaller_plant_savings_per_year"),
                254000.0, 25000.0);
    EXPECT_NEAR(g.at("plan.ocp.smaller_plant_savings_per_year"),
                174000.0, 25000.0);

    // Section 5.2, Figure 12: throughput gains 33/69/34 %.  The 2U
    // gain is the known deviation (EXPERIMENTS.md): 4 l of paraffin
    // cannot hold the energy the published 69 % implies under a
    // diurnal trace, so the reproduction lands near 24 %.
    EXPECT_NEAR(g.at("throughput.1u.gain"), 0.33, 0.08);
    EXPECT_NEAR(g.at("throughput.2u.gain"), 0.24, 0.08);
    EXPECT_NEAR(g.at("throughput.ocp.gain"), 0.34, 0.08);
    for (const char *p : {"1u", "2u", "ocp"}) {
        EXPECT_GT(g.at(std::string("throughput.") + p + ".delay_h"),
                  0.5)
            << p;
        // PCM must strictly reduce the work denied by the limit.
        EXPECT_LT(
            g.at(std::string("throughput.") + p + ".denied_with_wax"),
            g.at(std::string("throughput.") + p + ".denied_no_wax"))
            << p;
    }

    // Table 1: commercial paraffin as deployed (200 J/g, $1,500/t),
    // eicosane two orders of magnitude pricier.
    EXPECT_DOUBLE_EQ(
        g.at("table1.commercial_paraffin.heat_of_fusion_j_per_g"),
        200.0);
    EXPECT_DOUBLE_EQ(
        g.at("table1.commercial_paraffin.price_per_ton_usd"),
        1500.0);
    EXPECT_DOUBLE_EQ(g.at("table1.eicosane.price_per_ton_usd"),
                     75000.0);

    // Table 2 ranges: ServerCapEx 42-146 $/server/month, wax capital
    // 0.06-0.16 $/server/month.
    for (const char *p : {"1u", "2u", "ocp"}) {
        double capex =
            g.at(std::string("table2.") + p +
                 ".server_capex_per_server");
        EXPECT_GE(capex, 41.0) << p;
        EXPECT_LE(capex, 146.0) << p;
        double wax_capex =
            g.at(std::string("table2.") + p +
                 ".wax_capex_per_server");
        EXPECT_GE(wax_capex, 0.06) << p;
        EXPECT_LE(wax_capex, 0.16) << p;
    }
}

/**
 * The tentpole acceptance bar: the pinned wax-placement search must
 * find a configuration whose fleet peak cooling load beats the
 * paper's uniform 2U deployment on the same oracle.
 */
TEST(GoldenValues, OptSearchBeatsUniform2U)
{
    const auto &g = computed();
    EXPECT_EQ(g.at("opt.2u.beats_uniform"), 1.0);
    EXPECT_LT(g.at("opt.2u.best_peak_kw"),
              g.at("opt.2u.baseline_peak_kw"));
    EXPECT_GT(g.at("opt.2u.peak_reduction_vs_uniform"), 0.0);
    // The memo earned its keep on the pinned search.
    EXPECT_GT(g.at("opt.2u.memo_hit_count"), 0.0);
}

/**
 * The plant claims, held as bounds so a golden refresh cannot wash
 * them out: the MPC arm saves at least 10% a year over static CRAC,
 * and since most of that saving is the economizer the MPC runs on,
 * the controller must also beat the economizer alone.
 */
TEST(GoldenValues, PlantMpcClearsTheCracFloorAndBeatsTheEconomizer)
{
    const auto &g = computed();
    EXPECT_GE(g.at("plant.mpc_vs_crac.saving_fraction"), 0.10);
    EXPECT_LT(g.at("plant.mpc.yearly_net_cost_usd"),
              g.at("plant.economizer.yearly_net_cost_usd"));
}

/**
 * tts::exec determinism: the entire golden map, computed through the
 * parallel engine, must be bit-for-bit identical at one and eight
 * threads.  No tolerance - identical doubles or the engine's
 * contract is broken.
 */
TEST(GoldenValues, IdenticalAtOneAndEightThreads)
{
    exec::setGlobalThreads(1);
    auto serial = computeAll();
    exec::setGlobalThreads(8);
    auto parallel = computeAll();
    exec::setGlobalThreads(exec::defaultThreadCount());

    ASSERT_EQ(serial.size(), parallel.size());
    for (const auto &[key, value] : serial) {
        ASSERT_TRUE(parallel.count(key)) << key;
        // Exact bit equality, not NEAR.
        EXPECT_EQ(value, parallel.at(key)) << key;
    }
}

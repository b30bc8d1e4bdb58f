/** @file Tests for the fixed-step RK4 integrator. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "guard/numerics.hh"
#include "util/error.hh"
#include "util/integrator.hh"

namespace tts {
namespace {

/** dy/dt = -y, y(0) = 1 -> y(t) = exp(-t). */
const OdeRhs decay = [](double, const std::vector<double> &y,
                        std::vector<double> &dy) {
    dy.resize(y.size());
    for (std::size_t i = 0; i < y.size(); ++i)
        dy[i] = -y[i];
};

/** dy/dt = cos(t), y(0) = 0 -> y(t) = sin(t). */
const OdeRhs cosine = [](double t, const std::vector<double> &,
                         std::vector<double> &dy) {
    dy.assign(1, std::cos(t));
};

/** Parameterized on the stepper's name; RK4 is the one stepper. */
class IntegratorSweep
    : public ::testing::TestWithParam<std::string>
{
  protected:
    RungeKutta4 stepper;
};

TEST_P(IntegratorSweep, SolvesExponentialDecay)
{
    std::vector<double> y{1.0};
    integrate(stepper, decay, 0.0, 1.0, 1e-3, y);
    // RK4 lands within ~1e-14 at dt = 1e-3; a second-order step
    // misses by ~6e-8, so the bound checks the order too.
    EXPECT_NEAR(y[0], std::exp(-1.0), 1e-9);
}

TEST_P(IntegratorSweep, SolvesSine)
{
    std::vector<double> y{0.0};
    integrate(stepper, cosine, 0.0, 2.0, 1e-3, y);
    EXPECT_NEAR(y[0], std::sin(2.0), 1e-9);
}

TEST_P(IntegratorSweep, FinalStepLandsExactlyOnT1)
{
    std::vector<double> y{0.0};
    double last_t = -1.0;
    // dt = 0.3 does not divide 1.0; the observer must still see 1.0.
    integrate(stepper, cosine, 0.0, 1.0, 0.3, y,
              [&](double t, const std::vector<double> &) {
                  last_t = t;
              });
    EXPECT_DOUBLE_EQ(last_t, 1.0);
}

TEST_P(IntegratorSweep, ObserverSeesInitialState)
{
    std::vector<double> y{7.0};
    double first_value = 0.0;
    bool first = true;
    integrate(stepper, decay, 0.0, 0.5, 0.1, y,
              [&](double, const std::vector<double> &s) {
                  if (first) {
                      first_value = s[0];
                      first = false;
                  }
              });
    EXPECT_DOUBLE_EQ(first_value, 7.0);
}

TEST_P(IntegratorSweep, MultiDimensionalSystem)
{
    // Harmonic oscillator: x'' = -x as a 2-state system.
    OdeRhs osc = [](double, const std::vector<double> &y,
                    std::vector<double> &dy) {
        dy.resize(2);
        dy[0] = y[1];
        dy[1] = -y[0];
    };
    std::vector<double> y{1.0, 0.0};
    integrate(stepper, osc, 0.0, M_PI, 1e-3, y);
    EXPECT_NEAR(y[0], -1.0, 1e-9);
    EXPECT_NEAR(y[1], 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllSteppers, IntegratorSweep,
                         ::testing::Values("rk4"));

TEST(Integrator, Rk4ConvergesAtFourthOrder)
{
    RungeKutta4 rk;
    auto error_at = [&](double dt) {
        std::vector<double> y{1.0};
        integrate(rk, decay, 0.0, 1.0, dt, y);
        return std::abs(y[0] - std::exp(-1.0));
    };
    double e1 = error_at(0.1);
    double e2 = error_at(0.05);
    // Halving dt should cut the error by ~2^4 = 16.
    EXPECT_GT(e1 / e2, 12.0);
}

TEST(Integrator, RejectsNonPositiveDt)
{
    RungeKutta4 rk;
    std::vector<double> y{1.0};
    EXPECT_THROW(integrate(rk, decay, 0.0, 1.0, 0.0, y), FatalError);
    EXPECT_THROW(integrate(rk, decay, 0.0, 1.0, -1.0, y), FatalError);
}

TEST(Integrator, RejectsReversedInterval)
{
    RungeKutta4 rk;
    std::vector<double> y{1.0};
    EXPECT_THROW(integrate(rk, decay, 1.0, 0.0, 0.1, y), FatalError);
}

TEST(Integrator, ZeroSpanIsNoop)
{
    RungeKutta4 rk;
    std::vector<double> y{3.0};
    integrate(rk, decay, 2.0, 2.0, 0.1, y);
    EXPECT_DOUBLE_EQ(y[0], 3.0);
}

TEST(Integrator, NonMultipleSpanEndsExactlyOnT1)
{
    // 1.0 is not a binary multiple of 0.1: ten accumulated steps
    // land at 0.9999999999999999, and without the final-step snap
    // the loop used to take an extra ~1e-16 step (an 11th observer
    // call at a time indistinguishable from t1).
    RungeKutta4 rk;
    std::vector<double> y{1.0};
    std::vector<double> times;
    integrate(rk, decay, 0.0, 1.0, 0.1, y,
              [&](double t, const std::vector<double> &) {
                  times.push_back(t);
              });
    ASSERT_EQ(times.size(), 11u);  // t0 plus exactly ten steps.
    EXPECT_EQ(times.back(), 1.0);  // Bit-exact, not just approximate.
    for (std::size_t i = 1; i < times.size(); ++i)
        EXPECT_GT(times[i], times[i - 1]);
    // RK4 at dt=0.1 carries a ~3e-7 global error on this problem;
    // the bound only needs to catch a skipped or doubled step.
    EXPECT_NEAR(y[0], std::exp(-1.0), 1e-6);
}

TEST(Integrator, ShortenedFinalStepCoversRemainder)
{
    // Span 0.35 with dt 0.1: three full steps plus a 0.05 remainder.
    RungeKutta4 rk;
    std::vector<double> y{1.0};
    std::vector<double> times;
    integrate(rk, decay, 0.0, 0.35, 0.1, y,
              [&](double t, const std::vector<double> &) {
                  times.push_back(t);
              });
    ASSERT_EQ(times.size(), 5u);
    EXPECT_EQ(times.back(), 0.35);
    EXPECT_NEAR(y[0], std::exp(-0.35), 1e-6);
}

TEST(Integrator, StepUnderflowIsAFatalError)
{
    // dt so small relative to t that t + dt == t: the loop cannot
    // advance and must fail loudly instead of spinning forever.
    // The span must be wider than one ulp of t0 (2.0 at 1e16) or
    // t1 rounds back onto t0 and the loop never runs.
    RungeKutta4 rk;
    std::vector<double> y{1.0};
    EXPECT_THROW(integrate(rk, decay, 1e16, 1e16 + 4.0, 1e-6, y),
                 FatalError);
}

TEST(Integrator, NonFiniteStateNamesTheOffendingIndex)
{
    RungeKutta4 rk;
    std::vector<double> y{1.0, 1.0};
    const OdeRhs poisoned =
        [](double t, const std::vector<double> &state,
           std::vector<double> &dy) {
            dy.assign(state.size(), -1.0);
            if (t >= 0.5)
                dy[1] = std::numeric_limits<double>::quiet_NaN();
        };
    try {
        integrate(rk, poisoned, 0.0, 1.0, 0.1, y);
        FAIL() << "NaN state was not detected";
    } catch (const guard::NumericsError &e) {
        EXPECT_EQ(e.stateIndex(), 1);
        EXPECT_NE(std::string(e.what()).find("non-finite"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("after RungeKutta4 step"),
                  std::string::npos);
    }
}

} // namespace
} // namespace tts

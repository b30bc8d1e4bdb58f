/**
 * @file
 * Explicit ODE integrators over flat state vectors.
 *
 * The thermal solver integrates node enthalpies dH/dt = f(t, H) with
 * fixed-step classic RK4 (integrate()); its guard falls back to the
 * adaptive Bogacki-Shampine pair when retries fail.  The inner loops
 * are allocation-free; the state is a std::vector<double> reused
 * across steps.
 */

#ifndef TTS_UTIL_INTEGRATOR_HH
#define TTS_UTIL_INTEGRATOR_HH

#include <functional>
#include <vector>

namespace tts {

/**
 * Right-hand side of an ODE system.
 *
 * @param t     Current time (s).
 * @param state Current state vector.
 * @param deriv Output: time derivative of each state entry.
 */
using OdeRhs = std::function<void(double t,
                                  const std::vector<double> &state,
                                  std::vector<double> &deriv)>;

/** Classic fourth-order Runge-Kutta stepper. */
class RungeKutta4
{
  public:
    /**
     * Advance the state in place by one step.
     *
     * @param rhs   Derivative function.
     * @param t     Current time (s).
     * @param dt    Step size (s), must be > 0.
     * @param state State vector, updated in place.
     */
    void step(const OdeRhs &rhs, double t, double dt,
              std::vector<double> &state);

  private:
    std::vector<double> k1_, k2_, k3_, k4_, tmp_;
};

/**
 * Embedded Bogacki-Shampine 3(2) pair with adaptive step control.
 *
 * Used for stiff-ish or long integrations where a fixed step wastes
 * work: the step grows where the solution is smooth and shrinks at
 * transients (e.g. a PCM melt onset).  The local error of the
 * third-order solution is estimated against the embedded
 * second-order one and kept below atol + rtol * |y|.
 */
class AdaptiveRk23
{
  public:
    /**
     * @param rtol Relative tolerance.
     * @param atol Absolute tolerance.
     */
    explicit AdaptiveRk23(double rtol = 1e-6, double atol = 1e-9);

    /**
     * Integrate from t0 to t1, adapting the step.
     *
     * @param rhs      Derivative function.
     * @param t0       Start time (s).
     * @param t1       End time (s), >= t0.
     * @param state    State vector, updated in place.
     * @param h0       Initial step guess (s); <= 0 picks
     *                 (t1 - t0) / 100.
     * @param observer Optional observer(t, state) at t0 and after
     *                 every accepted step.
     * @return Number of accepted steps.
     * @throws guard::NumericsError if a stage result is non-finite
     *         and shrinking the step to the minimum does not cure
     *         it; a non-finite result at larger steps is treated as
     *         a rejection and retried at a smaller step.
     */
    std::size_t integrate(
        const OdeRhs &rhs, double t0, double t1,
        std::vector<double> &state, double h0 = 0.0,
        const std::function<void(double,
            const std::vector<double> &)> &observer = nullptr);

    /** @return Steps rejected during the last integrate() call. */
    std::size_t rejectedSteps() const { return rejected_; }

  private:
    double rtol_;
    double atol_;
    std::size_t rejected_ = 0;
    std::vector<double> k1_, k2_, k3_, k4_, tmp_, y3_;
};

/**
 * Integrate from t0 to t1 with fixed RK4 steps, invoking an observer
 * after every step.
 *
 * @param stepper  Stepper (its stage buffers are reused).
 * @param rhs      Derivative function.
 * @param t0       Start time (s).
 * @param t1       End time (s); must be >= t0.
 * @param dt       Nominal step (s); the final step is shortened to
 *                 land exactly on t1, and accumulated floating-point
 *                 drift within 1e-12*dt of t1 is snapped to t1 so no
 *                 spurious ~1-ulp final step is taken.
 * @param state    State vector, updated in place.
 * @param observer Optional callback observer(t, state) called at t0
 *                 and after every step.
 * @throws guard::NumericsError naming the first non-finite state
 *         entry if a step produces NaN/Inf.
 */
void integrate(RungeKutta4 &stepper, const OdeRhs &rhs, double t0,
               double t1, double dt, std::vector<double> &state,
               const std::function<void(double,
                   const std::vector<double> &)> &observer = nullptr);

} // namespace tts

#endif // TTS_UTIL_INTEGRATOR_HH

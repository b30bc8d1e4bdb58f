#include "util/integrator.hh"

#include <algorithm>
#include <cmath>

#include "guard/numerics.hh"
#include "util/error.hh"

namespace tts {

void
RungeKutta4::step(const OdeRhs &rhs, double t, double dt,
                  std::vector<double> &state)
{
    const std::size_t n = state.size();
    k1_.resize(n);
    k2_.resize(n);
    k3_.resize(n);
    k4_.resize(n);
    tmp_.resize(n);

    rhs(t, state, k1_);
    for (std::size_t i = 0; i < n; ++i)
        tmp_[i] = state[i] + 0.5 * dt * k1_[i];
    rhs(t + 0.5 * dt, tmp_, k2_);
    for (std::size_t i = 0; i < n; ++i)
        tmp_[i] = state[i] + 0.5 * dt * k2_[i];
    rhs(t + 0.5 * dt, tmp_, k3_);
    for (std::size_t i = 0; i < n; ++i)
        tmp_[i] = state[i] + dt * k3_[i];
    rhs(t + dt, tmp_, k4_);
    for (std::size_t i = 0; i < n; ++i) {
        state[i] += dt / 6.0 *
            (k1_[i] + 2.0 * k2_[i] + 2.0 * k3_[i] + k4_[i]);
    }
}

AdaptiveRk23::AdaptiveRk23(double rtol, double atol)
    : rtol_(rtol), atol_(atol)
{
    require(rtol > 0.0 && atol > 0.0,
            "AdaptiveRk23: tolerances must be positive");
}

std::size_t
AdaptiveRk23::integrate(
    const OdeRhs &rhs, double t0, double t1,
    std::vector<double> &state, double h0,
    const std::function<void(double,
        const std::vector<double> &)> &observer)
{
    require(t1 >= t0, "AdaptiveRk23: t1 must be >= t0");
    rejected_ = 0;
    if (t1 == t0)
        return 0;

    const std::size_t n = state.size();
    k1_.resize(n);
    k2_.resize(n);
    k3_.resize(n);
    k4_.resize(n);
    tmp_.resize(n);
    y3_.resize(n);

    double t = t0;
    double h = h0 > 0.0 ? h0 : (t1 - t0) / 100.0;
    const double h_min = (t1 - t0) * 1e-12;
    std::size_t accepted = 0;

    if (observer)
        observer(t, state);
    rhs(t, state, k1_);  // FSAL seed.
    while (t < t1) {
        h = std::min(h, t1 - t);
        // Bogacki-Shampine stages.
        for (std::size_t i = 0; i < n; ++i)
            tmp_[i] = state[i] + 0.5 * h * k1_[i];
        rhs(t + 0.5 * h, tmp_, k2_);
        for (std::size_t i = 0; i < n; ++i)
            tmp_[i] = state[i] + 0.75 * h * k2_[i];
        rhs(t + 0.75 * h, tmp_, k3_);
        for (std::size_t i = 0; i < n; ++i) {
            y3_[i] = state[i] + h * (2.0 / 9.0 * k1_[i] +
                                     1.0 / 3.0 * k2_[i] +
                                     4.0 / 9.0 * k3_[i]);
        }
        rhs(t + h, y3_, k4_);

        // Sentinel: a non-finite stage result means the step blew up
        // or the rhs itself produced a NaN.  The state must be
        // checked directly - a NaN error norm would be masked by the
        // std::max() accumulation below.  Shrink and retry; at the
        // minimum step the problem is not step-size-related, so name
        // the offending entry instead of accepting garbage.
        std::ptrdiff_t bad = guard::firstNonFinite(y3_);
        if (bad >= 0) {
            if (h <= h_min) {
                throw guard::NumericsError(
                    "AdaptiveRk23: non-finite state entry " +
                        std::to_string(bad) + " at minimum step (t=" +
                        std::to_string(t) + ")",
                    std::string(), -1, t, 0.0, bad);
            }
            ++rejected_;
            h = std::max(h * 0.2, h_min);
            continue;
        }

        // Error: difference to the embedded 2nd-order solution.
        double err = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            double y2 = state[i] + h * (7.0 / 24.0 * k1_[i] +
                                        0.25 * k2_[i] +
                                        1.0 / 3.0 * k3_[i] +
                                        0.125 * k4_[i]);
            double scale =
                atol_ + rtol_ * std::max(std::abs(state[i]),
                                         std::abs(y3_[i]));
            double e = (y3_[i] - y2) / scale;
            err = std::max(err, std::abs(e));
        }

        if (err <= 1.0 || h <= h_min) {
            t += h;
            state = y3_;
            k1_ = k4_;  // FSAL.
            ++accepted;
            if (observer)
                observer(t, state);
        } else {
            ++rejected_;
        }
        double factor = err > 0.0
            ? 0.9 * std::pow(err, -1.0 / 3.0)
            : 5.0;
        h *= std::clamp(factor, 0.2, 5.0);
        h = std::max(h, h_min);
    }
    return accepted;
}

void
integrate(RungeKutta4 &stepper, const OdeRhs &rhs, double t0, double t1,
          double dt, std::vector<double> &state,
          const std::function<void(double,
              const std::vector<double> &)> &observer)
{
    require(dt > 0.0, "integrate: dt must be positive");
    require(t1 >= t0, "integrate: t1 must be >= t0");
    double t = t0;
    if (observer)
        observer(t, state);
    while (t < t1) {
        double h = std::min(dt, t1 - t);
        // Guard against a shortened final step so small that t stops
        // advancing (t0 far from zero, or accumulated drift).
        require(t + h > t, "integrate: step underflow (dt too small "
                           "relative to t)");
        stepper.step(rhs, t, h, state);

        std::ptrdiff_t bad = guard::firstNonFinite(state);
        if (bad >= 0) {
            throw guard::NumericsError(
                "integrate: non-finite state entry " +
                    std::to_string(bad) +
                    " after RungeKutta4 step at t=" +
                    std::to_string(t + h),
                std::string(), -1, t + h, 0.0, bad);
        }

        t += h;
        // Accumulated floating-point drift can leave t just shy of
        // t1, producing a spurious ~1e-16 s final step; snap within
        // a 1e-12*dt tolerance so the loop terminates exactly at t1.
        if (t1 - t <= dt * 1e-12)
            t = t1;
        if (observer)
            observer(t, state);
    }
}

} // namespace tts

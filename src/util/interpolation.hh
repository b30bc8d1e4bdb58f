/**
 * @file
 * Piecewise-linear interpolation over (x, y) breakpoints.
 *
 * Used for enthalpy-temperature curves, fan curves, trace lookup, and
 * calibration tables throughout the library.
 */

#ifndef TTS_UTIL_INTERPOLATION_HH
#define TTS_UTIL_INTERPOLATION_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace tts {

/**
 * A piecewise-linear function y = f(x) defined by sorted breakpoints.
 *
 * Evaluation outside the breakpoint range clamps to the end values
 * (flat extrapolation), which is the safe behavior for physical
 * property tables.
 */
class PiecewiseLinear
{
  public:
    /** Construct an empty curve; add points before evaluating. */
    PiecewiseLinear() = default;

    /**
     * Construct from a list of (x, y) points.
     *
     * @param points Breakpoints; sorted internally by x.
     */
    explicit PiecewiseLinear(
        std::vector<std::pair<double, double>> points);

    /**
     * Add one breakpoint.  X values must be unique.
     *
     * @param x Abscissa.
     * @param y Ordinate.
     */
    void addPoint(double x, double y);

    /**
     * Evaluate the curve at x with clamped extrapolation.
     *
     * @param x Point of evaluation.
     * @return Interpolated value; NaN for a NaN x.
     */
    double operator()(double x) const;

    /**
     * Evaluate the inverse x = f^-1(y).  Requires the curve to be
     * strictly monotone in y.
     *
     * @param y Target ordinate.
     * @return The x with f(x) == y, clamped to the domain; NaN for a
     *         NaN y.
     */
    double inverse(double y) const;

    /**
     * Definite integral of the curve between a and b (trapezoidal,
     * exact for piecewise-linear).
     *
     * @param a Lower limit.
     * @param b Upper limit (may be < a; sign follows convention).
     * @return Integral value.
     */
    double integral(double a, double b) const;

    /** @return Number of breakpoints. */
    std::size_t size() const { return xs_.size(); }

    /** @return True if no breakpoints have been added. */
    bool empty() const { return xs_.empty(); }

    /** @return Smallest breakpoint x. */
    double minX() const;
    /** @return Largest breakpoint x. */
    double maxX() const;

    /** @return True if y values are strictly increasing in x. */
    bool strictlyIncreasing() const { return increasing_; }

  private:
    /** Recompute increasing_ from ys_ (after any change to ys_). */
    void updateIncreasing();

    /** Sorted breakpoint abscissae. */
    std::vector<double> xs_;
    /** Ordinates matching xs_. */
    std::vector<double> ys_;
    /**
     * Whether ys_ is strictly increasing, kept current by the
     * constructor and addPoint() so inverse() tests a flag instead of
     * rescanning the curve on every lookup.
     */
    bool increasing_ = true;
};

} // namespace tts

#endif // TTS_UTIL_INTERPOLATION_HH

#include "util/interpolation.hh"

#include <algorithm>
#include <cmath>

#include "util/error.hh"

namespace tts {

PiecewiseLinear::PiecewiseLinear(
    std::vector<std::pair<double, double>> points)
{
    std::sort(points.begin(), points.end());
    xs_.reserve(points.size());
    ys_.reserve(points.size());
    for (const auto &[x, y] : points) {
        if (!xs_.empty() && x == xs_.back())
            fatal("PiecewiseLinear: duplicate x breakpoint");
        xs_.push_back(x);
        ys_.push_back(y);
    }
    updateIncreasing();
}

void
PiecewiseLinear::addPoint(double x, double y)
{
    auto it = std::lower_bound(xs_.begin(), xs_.end(), x);
    if (it != xs_.end() && *it == x)
        fatal("PiecewiseLinear: duplicate x breakpoint");
    std::size_t idx = it - xs_.begin();
    xs_.insert(xs_.begin() + idx, x);
    ys_.insert(ys_.begin() + idx, y);
    updateIncreasing();
}

double
PiecewiseLinear::operator()(double x) const
{
    require(!xs_.empty(), "PiecewiseLinear: evaluating empty curve");
    if (x <= xs_.front())
        return ys_.front();
    if (x >= xs_.back())
        return ys_.back();
    // Only a NaN gets past both clamps without lying inside the
    // domain; the search below would return end() for it.
    if (std::isnan(x))
        return x;
    auto it = std::upper_bound(xs_.begin(), xs_.end(), x);
    std::size_t i = (it - xs_.begin()) - 1;
    double t = (x - xs_[i]) / (xs_[i + 1] - xs_[i]);
    return ys_[i] + t * (ys_[i + 1] - ys_[i]);
}

double
PiecewiseLinear::inverse(double y) const
{
    require(xs_.size() >= 2,
            "PiecewiseLinear::inverse needs at least two points");
    require(strictlyIncreasing(),
            "PiecewiseLinear::inverse requires strictly increasing y");
    if (y <= ys_.front())
        return xs_.front();
    if (y >= ys_.back())
        return xs_.back();
    if (std::isnan(y))
        return y;
    auto it = std::upper_bound(ys_.begin(), ys_.end(), y);
    std::size_t i = (it - ys_.begin()) - 1;
    double t = (y - ys_[i]) / (ys_[i + 1] - ys_[i]);
    return xs_[i] + t * (xs_[i + 1] - xs_[i]);
}

double
PiecewiseLinear::integral(double a, double b) const
{
    require(!xs_.empty(), "PiecewiseLinear: integrating empty curve");
    if (a > b)
        return -integral(b, a);
    // Integrate by walking segments, treating extrapolated regions as
    // constant at the end values.
    double total = 0.0;
    auto segment = [this](double lo, double hi) {
        return 0.5 * ((*this)(lo) + (*this)(hi)) * (hi - lo);
    };
    // Collect the interior breakpoints between a and b.
    double prev = a;
    for (std::size_t i = 0; i < xs_.size(); ++i) {
        if (xs_[i] <= a)
            continue;
        if (xs_[i] >= b)
            break;
        total += segment(prev, xs_[i]);
        prev = xs_[i];
    }
    total += segment(prev, b);
    return total;
}

double
PiecewiseLinear::minX() const
{
    require(!xs_.empty(), "PiecewiseLinear: minX of empty curve");
    return xs_.front();
}

double
PiecewiseLinear::maxX() const
{
    require(!xs_.empty(), "PiecewiseLinear: maxX of empty curve");
    return xs_.back();
}

void
PiecewiseLinear::updateIncreasing()
{
    increasing_ = std::adjacent_find(ys_.begin(), ys_.end(),
                                     [](double a, double b) {
                                         return b <= a;
                                     }) == ys_.end();
}

} // namespace tts

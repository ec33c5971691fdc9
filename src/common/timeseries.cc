#include "common/timeseries.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace csprint {

void
TimeSeries::add(double t, double v)
{
    SPRINT_ASSERT(times.empty() || t >= times.back(),
                  "time series must be sampled in order");
    times.push_back(t);
    values.push_back(v);
}

void
TimeSeries::reserve(std::size_t n)
{
    times.reserve(n);
    values.reserve(n);
}

double
TimeSeries::back() const
{
    SPRINT_ASSERT(!values.empty(), "back() on empty series");
    return values.back();
}

double
TimeSeries::minValue() const
{
    SPRINT_ASSERT(!values.empty(), "minValue() on empty series");
    return *std::min_element(values.begin(), values.end());
}

double
TimeSeries::maxValue() const
{
    SPRINT_ASSERT(!values.empty(), "maxValue() on empty series");
    return *std::max_element(values.begin(), values.end());
}

namespace {

/** Interpolate the crossing time between two bracketing samples. */
double
interpolateCrossing(double t0, double v0, double t1, double v1,
                    double threshold)
{
    if (v1 == v0)
        return t1;
    const double frac = (threshold - v0) / (v1 - v0);
    return t0 + frac * (t1 - t0);
}

} // namespace

std::optional<double>
TimeSeries::firstTimeAbove(double threshold) const
{
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (values[i] >= threshold) {
            if (i == 0)
                return times[0];
            return interpolateCrossing(times[i - 1], values[i - 1],
                                       times[i], values[i], threshold);
        }
    }
    return std::nullopt;
}

std::optional<double>
TimeSeries::firstTimeBelow(double threshold) const
{
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (values[i] <= threshold) {
            if (i == 0)
                return times[0];
            return interpolateCrossing(times[i - 1], values[i - 1],
                                       times[i], values[i], threshold);
        }
    }
    return std::nullopt;
}

std::optional<double>
TimeSeries::settlingTime(double tolerance) const
{
    if (values.empty())
        return std::nullopt;
    const double target = values.back();
    // Walk backwards to find the last sample outside the band.
    for (std::size_t i = values.size(); i-- > 0;) {
        if (std::abs(values[i] - target) > tolerance) {
            if (i + 1 < times.size())
                return times[i + 1];
            return times[i];
        }
    }
    return times.front();
}

double
TimeSeries::timeAbove(double threshold) const
{
    double total = 0.0;
    for (std::size_t i = 1; i < values.size(); ++i) {
        const double dt = times[i] - times[i - 1];
        const bool above0 = values[i - 1] >= threshold;
        const bool above1 = values[i] >= threshold;
        if (above0 && above1) {
            total += dt;
        } else if (above0 != above1) {
            const double tc =
                interpolateCrossing(times[i - 1], values[i - 1], times[i],
                                    values[i], threshold);
            total += above0 ? (tc - times[i - 1]) : (times[i] - tc);
        }
    }
    return total;
}

TimeSeries
TimeSeries::decimate(std::size_t max_points) const
{
    TimeSeries out;
    if (times.empty() || max_points == 0)
        return out;
    if (times.size() <= max_points)
        return *this;
    const std::size_t stride =
        (times.size() + max_points - 1) / max_points;
    for (std::size_t i = 0; i < times.size(); i += stride)
        out.add(times[i], values[i]);
    if (out.times.back() != times.back())
        out.add(times.back(), values.back());
    return out;
}

DecimatingTrace::DecimatingTrace(std::size_t capacity)
    : cap(capacity < 2 ? 2 : capacity)
{
    // A ring reserves its capacity on its first stored sample, so
    // building one allocates nothing.
}

void
DecimatingTrace::add(double t, double v)
{
    const std::size_t idx = offered_++;
    if (idx != next_store_)
        return;
    if (ts.size() == 0 && cap != kUnbounded)
        ts.reserve(cap);
    if (ts.size() == cap) {
        // Compact: keep every other stored sample, so the retained
        // samples stay on the uniform grid {0, s, 2s, ...} of the
        // doubled stride s.
        TimeSeries kept;
        kept.reserve(cap);
        for (std::size_t i = 0; i < ts.size(); i += 2)
            kept.add(ts.timeAt(i), ts.valueAt(i));
        const std::size_t kept_count = kept.size();
        ts = std::move(kept);
        stride_ *= 2;
        next_store_ = stride_ * kept_count;
        if (idx != next_store_)
            return;
    }
    ts.add(t, v);
    next_store_ = idx + stride_;
}

void
DecimatingTrace::reserveMore(std::size_t n)
{
    ts.reserve(std::min(cap, ts.size() + n));
}

TimeSeries
DecimatingTrace::take()
{
    TimeSeries out = std::move(ts);
    ts = TimeSeries();
    stride_ = 1;
    next_store_ = 0;
    offered_ = 0;
    return out;
}

} // namespace csprint

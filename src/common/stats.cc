#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace csprint {

void
RunningStat::add(double x)
{
    ++n;
    total += x;
    const double delta = x - m;
    m += delta / static_cast<double>(n);
    m2 += delta * (x - m);
    if (x < lo)
        lo = x;
    if (x > hi)
        hi = x;
}

double
RunningStat::variance() const
{
    if (n < 2)
        return 0.0;
    return m2 / static_cast<double>(n - 1);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

P2Quantile::P2Quantile(double q) : q_(q)
{
    SPRINT_ASSERT(q > 0.0 && q < 1.0, "quantile must be in (0, 1)");
}

void
P2Quantile::add(double x)
{
    if (n < 5) {
        // Bootstrap: collect the first five samples sorted.
        height[n] = x;
        ++n;
        std::sort(height.begin(), height.begin() + n);
        if (n == 5) {
            for (int i = 0; i < 5; ++i)
                pos[i] = static_cast<double>(i + 1);
            desired[0] = 1.0;
            desired[1] = 1.0 + 2.0 * q_;
            desired[2] = 1.0 + 4.0 * q_;
            desired[3] = 3.0 + 2.0 * q_;
            desired[4] = 5.0;
            rate[0] = 0.0;
            rate[1] = q_ / 2.0;
            rate[2] = q_;
            rate[3] = (1.0 + q_) / 2.0;
            rate[4] = 1.0;
        }
        return;
    }
    ++n;

    // Find the cell the sample falls into; clamp the extreme markers.
    int k;
    if (x < height[0]) {
        height[0] = x;
        k = 0;
    } else if (x >= height[4]) {
        height[4] = x;
        k = 3;
    } else {
        k = 0;
        while (k < 3 && x >= height[k + 1])
            ++k;
    }
    for (int i = k + 1; i < 5; ++i)
        pos[i] += 1.0;
    for (int i = 0; i < 5; ++i)
        desired[i] += rate[i];

    adjustMarkers();
}

bool
P2Quantile::adjustMarkers()
{
    // Nudge the three interior markers toward their desired positions.
    bool moved = false;
    for (int i = 1; i <= 3; ++i) {
        const double d = desired[i] - pos[i];
        if ((d >= 1.0 && pos[i + 1] - pos[i] > 1.0) ||
            (d <= -1.0 && pos[i - 1] - pos[i] < -1.0)) {
            const double sign = d >= 1.0 ? 1.0 : -1.0;
            // Piecewise-parabolic (P²) height update.
            const double np = pos[i] + sign;
            const double hp =
                height[i] +
                sign / (pos[i + 1] - pos[i - 1]) *
                    ((pos[i] - pos[i - 1] + sign) *
                         (height[i + 1] - height[i]) /
                         (pos[i + 1] - pos[i]) +
                     (pos[i + 1] - pos[i] - sign) *
                         (height[i] - height[i - 1]) /
                         (pos[i] - pos[i - 1]));
            // Fall back to linear when the parabola leaves the bracket.
            if (hp > height[i - 1] && hp < height[i + 1]) {
                height[i] = hp;
            } else {
                const int j = sign > 0.0 ? i + 1 : i - 1;
                height[i] += sign * (height[j] - height[i]) /
                             (pos[j] - pos[i]);
            }
            pos[i] = np;
            moved = true;
        }
    }
    return moved;
}

void
P2Quantile::addWeighted(double x, std::size_t w)
{
    SPRINT_ASSERT(n >= 5, "weighted add requires a primed estimator");
    if (w == 0)
        return;
    const double dw = static_cast<double>(w);
    n += w;

    int k;
    if (x < height[0]) {
        height[0] = x;
        k = 0;
    } else if (x >= height[4]) {
        height[4] = x;
        k = 3;
    } else {
        k = 0;
        while (k < 3 && x >= height[k + 1])
            ++k;
    }
    for (int i = k + 1; i < 5; ++i)
        pos[i] += dw;
    for (int i = 0; i < 5; ++i)
        desired[i] += rate[i] * dw;

    // A weight-w sample can leave markers several positions behind
    // their desired spots; sweep until they settle (each sweep moves
    // every eligible marker by one position, so w sweeps always
    // suffice — the cap only guards degenerate float states).
    for (std::size_t sweep = 0; sweep < w + 4; ++sweep) {
        if (!adjustMarkers())
            break;
    }
}

void
P2Quantile::merge(const P2Quantile &other)
{
    SPRINT_ASSERT(q_ == other.q_,
                  "cannot merge estimators of different quantiles");
    if (other.n == 0)
        return;
    if (n == 0) {
        *this = other;
        return;
    }
    if (other.n <= 5) {
        // The other side still holds its raw bootstrap samples.
        for (std::size_t i = 0; i < other.n; ++i)
            add(other.height[i]);
        return;
    }
    if (n <= 5) {
        // We hold raw samples, the other side is primed: fold our
        // samples into a copy of it instead (exact either way).
        P2Quantile merged = other;
        for (std::size_t i = 0; i < n; ++i)
            merged.add(height[i]);
        *this = merged;
        return;
    }
    // Both primed: the other's five markers summarize its whole
    // stream — fold them in as count-weighted samples, ascending, the
    // extra going to the median marker.
    const std::size_t base = other.n / 5;
    const std::size_t extra = other.n - base * 5;
    for (int i = 0; i < 5; ++i)
        addWeighted(other.height[i], base + (i == 2 ? extra : 0));
}

void
P2Quantile::save(double *out) const
{
    *out++ = q_;
    *out++ = static_cast<double>(n);
    for (int i = 0; i < 5; ++i)
        *out++ = height[i];
    for (int i = 0; i < 5; ++i)
        *out++ = pos[i];
    for (int i = 0; i < 5; ++i)
        *out++ = desired[i];
    for (int i = 0; i < 5; ++i)
        *out++ = rate[i];
}

double
P2Quantile::value() const
{
    if (n == 0)
        return 0.0;
    if (n <= 5) {
        // Exact nearest-rank on the sorted bootstrap samples.
        const std::size_t rank = static_cast<std::size_t>(
            std::ceil(q_ * static_cast<double>(n)));
        return height[std::min(n - 1, rank > 0 ? rank - 1 : 0)];
    }
    return height[2];
}

} // namespace csprint

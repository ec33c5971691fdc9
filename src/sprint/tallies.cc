#include "sprint/tallies.hh"

#include <cmath>
#include <cstring>

namespace csprint {

bool
FieldDiff::same(double a, double b)
{
    if (std::isnan(a) || std::isnan(b))
        return false;
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

bool
FieldDiff::same(const TimeSeries &a, const TimeSeries &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!same(a.timeAt(i), b.timeAt(i)) ||
            !same(a.valueAt(i), b.valueAt(i)))
            return false;
    }
    return true;
}

bool
FieldDiff::same(const P2Quantile &a, const P2Quantile &b)
{
    double sa[P2Quantile::kStateSize];
    double sb[P2Quantile::kStateSize];
    a.save(sa);
    b.save(sb);
    for (std::size_t i = 0; i < P2Quantile::kStateSize; ++i) {
        if (!same(sa[i], sb[i]))
            return false;
    }
    return true;
}

template <typename Count>
void
TaskTallies<Count>::compare(FieldDiff &diff, const TaskTallies &o) const
{
    forEachField([&](const char *name, auto field) {
        diff(name, this->*field, o.*field);
    });
}

template struct TaskTallies<int>;
template struct TaskTallies<std::uint64_t>;

} // namespace csprint

#include "sprint/tallies.hh"

#include <climits>
#include <cmath>
#include <cstring>
#include <type_traits>

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
TaskTallies<Count>::encode(BlobWriter &w) const
{
    forEachField([&](const char *, auto field) {
        const auto &value = this->*field;
        if constexpr (std::is_same_v<std::decay_t<decltype(value)>, double>)
            w.f64(value);
        else
            w.i64(static_cast<std::int64_t>(value));
    });
}

template <typename Count>
void
TaskTallies<Count>::decode(BlobReader &r)
{
    forEachField([&](const char *name, auto field) {
        auto &value = this->*field;
        using T = std::remove_reference_t<decltype(value)>;
        if constexpr (std::is_same_v<T, double>) {
            value = r.f64();
        } else {
            const std::uint64_t v = r.u64();
            if (std::is_same_v<T, int> && v > INT_MAX)
                throw CheckpointError(
                    CheckpointError::Kind::Corrupt,
                    std::string(name) + " " +
                        std::to_string(static_cast<std::int64_t>(v)) +
                        " is outside [0, INT_MAX]");
            value = static_cast<T>(v);
        }
    });
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

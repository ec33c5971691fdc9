/**
 * @file
 * The per-task sprint statistics every layer reports — tasks served,
 * sprints granted/denied/exhausted, throttles, preemptions, drops,
 * deadlines, peak junction, and energy/sprint-time sums — as one value
 * type with one fold (add), one codec (transfer), and one exact
 * comparison (compare). ScenarioCheckpoint and ScenarioResult derive
 * from TaskTallies<int>, FleetAggregates from TaskTallies<uint64_t>,
 * so adding a tally is a change to this file alone.
 *
 * FieldDiff is the exact comparator behind firstDifference()
 * (sprint/scenario.hh, sprint/fleet.hh), the parity check of every
 * bit-exact gate: doubles compare by bit pattern, and a NaN on either
 * side always differs.
 */

#ifndef CSPRINT_SPRINT_TALLIES_HH
#define CSPRINT_SPRINT_TALLIES_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>

#include "common/blob.hh"
#include "common/stats.hh"
#include "common/timeseries.hh"
#include "common/units.hh"

namespace csprint {

/**
 * Field-by-field exact comparison that remembers the name of the
 * first field whose two sides differ. Doubles (also inside TimeSeries
 * and P2Quantile state) compare by bit pattern, so +0.0 and -0.0
 * differ and a NaN never matches, not even itself; every other type
 * compares with ==.
 */
class FieldDiff
{
  public:
    /** Compare one field pair; a no-op once a difference was found. */
    template <typename T>
    void operator()(const char *field, const T &a, const T &b)
    {
        if (first_.empty() && !same(a, b))
            first_ = field;
    }

    /** Name of the first differing field; empty while all matched. */
    const std::string &first() const { return first_; }

  private:
    static bool same(double a, double b);
    static bool same(const TimeSeries &a, const TimeSeries &b);
    static bool same(const P2Quantile &a, const P2Quantile &b);

    template <typename T>
    static bool same(const T &a, const T &b)
    {
        return a == b;
    }

    std::string first_;
};

/**
 * The 13 per-task sprint tallies. Event counters are Count (int per
 * scenario, uint64_t fleet-wide); tasks_completed is always uint64_t.
 * The per-task updates live in the scenario engine; add() serves only
 * the fleet's device fold and range merge.
 */
template <typename Count>
struct TaskTallies
{
    /** Tasks served (counts even when per-task results are dropped). */
    std::uint64_t tasks_completed = 0;

    Count sprints_granted = 0;
    Count sprints_denied = 0;     ///< tasks the policy ran consolidated
    Count sprints_exhausted = 0;  ///< granted sprints ended by the policy
    Count hardware_throttles = 0;
    Count preemptions = 0;        ///< mid-task suspensions performed
    Count tasks_dropped = 0;      ///< arrivals the policy rejected
    Count deadlines_met = 0;      ///< completed within their deadline
    Count deadlines_missed = 0;   ///< overshot or dropped with a deadline

    Celsius peak_junction = 0.0;      ///< hottest junction seen
    Joules total_energy = 0.0;
    Seconds total_sprint_time = 0.0;  ///< sum of above-TDP time
    Joules total_sprint_energy = 0.0; ///< sum of above-TDP energy

    /** Sum @p o's counters and sums in; keep the larger peak. */
    template <typename Other>
    void add(const TaskTallies<Other> &o)
    {
        tasks_completed += o.tasks_completed;
        sprints_granted += static_cast<Count>(o.sprints_granted);
        sprints_denied += static_cast<Count>(o.sprints_denied);
        sprints_exhausted += static_cast<Count>(o.sprints_exhausted);
        hardware_throttles += static_cast<Count>(o.hardware_throttles);
        preemptions += static_cast<Count>(o.preemptions);
        tasks_dropped += static_cast<Count>(o.tasks_dropped);
        deadlines_met += static_cast<Count>(o.deadlines_met);
        deadlines_missed += static_cast<Count>(o.deadlines_missed);
        peak_junction = std::max(peak_junction, o.peak_junction);
        total_energy += o.total_energy;
        total_sprint_time += o.total_sprint_time;
        total_sprint_energy += o.total_sprint_energy;
    }

    /**
     * Call @p fn(name, member pointer) for every tally, in declaration
     * order: the one field list behind transfer and compare.
     */
    template <typename Fn>
    static void forEachField(Fn &&fn)
    {
        fn("tasks_completed", &TaskTallies::tasks_completed);
        fn("sprints_granted", &TaskTallies::sprints_granted);
        fn("sprints_denied", &TaskTallies::sprints_denied);
        fn("sprints_exhausted", &TaskTallies::sprints_exhausted);
        fn("hardware_throttles", &TaskTallies::hardware_throttles);
        fn("preemptions", &TaskTallies::preemptions);
        fn("tasks_dropped", &TaskTallies::tasks_dropped);
        fn("deadlines_met", &TaskTallies::deadlines_met);
        fn("deadlines_missed", &TaskTallies::deadlines_missed);
        fn("peak_junction", &TaskTallies::peak_junction);
        fn("total_energy", &TaskTallies::total_energy);
        fn("total_sprint_time", &TaskTallies::total_sprint_time);
        fn("total_sprint_energy", &TaskTallies::total_sprint_energy);
    }

    /**
     * Move the fields through archive @p a in declaration order,
     * integers as 8 bytes and doubles as f64: one u64, 8×i64, 4×f64,
     * the checkpoint layout. Reading throws CheckpointError (Corrupt)
     * for a counter that Count cannot hold (for int, outside
     * [0, INT_MAX]), so a forged blob cannot smuggle in a negative
     * count.
     */
    template <typename Ar>
    static void transfer(Ar &a, Io<Ar, TaskTallies> t)
    {
        forEachField([&](const char *name, auto field) {
            auto &value = t.*field;
            using T = std::decay_t<decltype(value)>;
            if constexpr (std::is_same_v<T, double>) {
                a.f64(value);
            } else if constexpr (std::is_same_v<T, int>) {
                a.narrowInt(value, name);
                if constexpr (Ar::kReading) {
                    if (value < 0)
                        throw CheckpointError(
                            CheckpointError::Kind::Corrupt,
                            std::string(name) + " is negative");
                }
            } else {
                a.u64(value);
            }
        });
    }

    /** Feed every field pair of *this and @p o to @p diff, in order. */
    void compare(FieldDiff &diff, const TaskTallies &o) const;
};

extern template struct TaskTallies<int>;
extern template struct TaskTallies<std::uint64_t>;

} // namespace csprint

#endif // CSPRINT_SPRINT_TALLIES_HH

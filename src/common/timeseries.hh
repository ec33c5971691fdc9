/**
 * @file
 * Sampled time series with the analysis helpers the thermal and
 * power-grid experiments need (extrema, threshold crossings, settling
 * time, decimation for printing).
 */

#ifndef CSPRINT_COMMON_TIMESERIES_HH
#define CSPRINT_COMMON_TIMESERIES_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace csprint {

/** A pair of parallel vectors: sample times and sample values. */
class TimeSeries
{
  public:
    /** Append one sample; times must be non-decreasing. */
    void add(double t, double v);

    /** Pre-size the storage for @p n total samples. */
    void reserve(std::size_t n);

    /** Number of samples. */
    std::size_t size() const { return times.size(); }

    /** True when no samples have been recorded. */
    bool empty() const { return times.empty(); }

    /** Sample time at index @p i. */
    double timeAt(std::size_t i) const { return times[i]; }

    /** Sample value at index @p i. */
    double valueAt(std::size_t i) const { return values[i]; }

    /** Last sample value; series must be non-empty. */
    double back() const;

    /** Smallest sample value; series must be non-empty. */
    double minValue() const;

    /** Largest sample value; series must be non-empty. */
    double maxValue() const;

    /**
     * First time the series rises to or above @p threshold
     * (linearly interpolated), if it ever does.
     */
    std::optional<double> firstTimeAbove(double threshold) const;

    /**
     * First time the series falls to or below @p threshold
     * (linearly interpolated), if it ever does.
     */
    std::optional<double> firstTimeBelow(double threshold) const;

    /**
     * Earliest time T such that every sample at or after T stays within
     * +/- @p tolerance of the final sample value. Returns the first
     * sample time when the series never leaves the band.
     */
    std::optional<double> settlingTime(double tolerance) const;

    /** Total time the series spends at or above @p threshold. */
    double timeAbove(double threshold) const;

    /**
     * Reduce to at most @p max_points samples (uniform stride) for
     * compact printing. The final sample is always retained.
     */
    TimeSeries decimate(std::size_t max_points) const;

    /** Direct access to sample times. */
    const std::vector<double> &timeData() const { return times; }

  private:
    friend struct CheckpointIO;

    std::vector<double> times;
    std::vector<double> values;
};

/**
 * A bounded-memory trace recorder: stores at most @p capacity samples
 * however many are offered. When the buffer fills, every other stored
 * sample is dropped and the recording stride doubles, so the retained
 * samples always cover the whole offered timeline at uniform (power-of-
 * two) decimation — a "decimated ring" rather than a most-recent ring.
 * Memory is O(capacity) regardless of stream length. A recorder built
 * with kUnbounded never fills, so it keeps every sample at stride 1.
 */
class DecimatingTrace
{
  public:
    /** The capacity of a recorder that never decimates. */
    static constexpr std::size_t kUnbounded = SIZE_MAX;

    /** Record into a buffer of at most @p capacity samples (>= 2). */
    explicit DecimatingTrace(std::size_t capacity);

    /** Offer one sample; stored iff it lands on the current stride. */
    void add(double t, double v);

    /** Pre-size for @p n more samples, never past the capacity. */
    void reserveMore(std::size_t n);

    /** Samples offered so far (stored or skipped). */
    std::size_t offered() const { return offered_; }

    /** Current decimation stride (1 until the first compaction). */
    std::size_t stride() const { return stride_; }

    /** The retained samples. */
    const TimeSeries &series() const { return ts; }

    /** Move the retained samples out; the recorder resets. */
    TimeSeries take();

  private:
    friend struct CheckpointIO;

    TimeSeries ts;
    std::size_t cap;
    std::size_t stride_ = 1;
    std::size_t next_store_ = 0; ///< absolute offered index stored next
    std::size_t offered_ = 0;
};

} // namespace csprint

#endif // CSPRINT_COMMON_TIMESERIES_HH

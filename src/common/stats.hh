/**
 * @file
 * Streaming summary statistics.
 */

#ifndef CSPRINT_COMMON_STATS_HH
#define CSPRINT_COMMON_STATS_HH

#include <array>
#include <cstddef>
#include <limits>

namespace csprint {

/**
 * Welford-style running summary: count, mean, variance, min, max.
 *
 * Numerically stable for long streams; O(1) memory.
 */
class RunningStat
{
  public:
    /** Fold one sample into the summary. */
    void add(double x);

    /** Number of samples folded in so far. */
    std::size_t count() const { return n; }

    /** Mean of the samples (0 when empty). */
    double mean() const { return n ? m : 0.0; }

    /** Unbiased sample variance (0 when fewer than two samples). */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Smallest sample seen (+inf when empty). */
    double min() const { return lo; }

    /** Largest sample seen (-inf when empty). */
    double max() const { return hi; }

    /** Sum of all samples. */
    double sum() const { return total; }

  private:
    std::size_t n = 0;
    double m = 0.0;
    double m2 = 0.0;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    double total = 0.0;
};

/**
 * P-squared (P²) streaming quantile estimator (Jain & Chlamtac 1985):
 * five markers track the running @p q quantile with O(1) memory and
 * O(1) work per sample. Exact for the first five samples; thereafter
 * the markers move by piecewise-parabolic interpolation.
 *
 * Value-semantic (plain doubles), so an estimator can be snapshotted
 * into a checkpoint (CheckpointIO) and resumed by copy.
 */
class P2Quantile
{
  public:
    /**
     * Number of doubles save() writes: the tracked quantile, the
     * sample count, and the four marker arrays.
     */
    static constexpr std::size_t kStateSize = 22;

    /** Track the @p q quantile, q in (0, 1). */
    explicit P2Quantile(double q = 0.5);

    /** Fold one sample into the estimate. */
    void add(double x);

    /**
     * Fold another estimator of the SAME quantile into this one, so
     * per-shard streaming estimates combine into a fleet-level one
     * (sprint/fleet.hh). Small estimators (five or fewer samples)
     * still hold their raw samples and merge exactly; beyond that the
     * other's five markers are folded in as count-weighted samples —
     * an approximation, but a deterministic one: equal inputs merged
     * in equal order yield bit-equal state, which is what the
     * multi-process fleet parity gate needs. Merge order shifts the
     * estimate only within the estimator's own accuracy (property-
     * tested in tests/fleet_test.cc); count() is exact regardless.
     */
    void merge(const P2Quantile &other);

    /** Current estimate (exact when five or fewer samples). */
    double value() const;

    /** Number of samples folded in so far. */
    std::size_t count() const { return n; }

    /** The quantile being tracked. */
    double quantile() const { return q_; }

    /**
     * Dump the whole estimator into @p out (kStateSize doubles), so a
     * caller can compare or fingerprint estimators field by field.
     */
    void save(double *out) const;

  private:
    friend struct CheckpointIO;

    /** One interior-marker adjustment sweep; true when any marker moved. */
    bool adjustMarkers();

    /** Fold @p x in as @p w identical samples (requires n >= 5). */
    void addWeighted(double x, std::size_t w);

    double q_;
    std::size_t n = 0;
    std::array<double, 5> height{};   ///< marker heights (sorted)
    std::array<double, 5> pos{};      ///< actual marker positions
    std::array<double, 5> desired{};  ///< desired marker positions
    std::array<double, 5> rate{};     ///< desired-position increments
};

} // namespace csprint

#endif // CSPRINT_COMMON_STATS_HH

/**
 * @file
 * Simple statistics containers used throughout the simulator and the
 * benchmark harnesses: scalar counters, streaming summaries, and
 * fixed-bucket histograms (used, e.g., to render the Figure-10 latency
 * distributions as text).
 */

#ifndef USCOPE_COMMON_STATS_HH
#define USCOPE_COMMON_STATS_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace uscope
{

/**
 * Streaming summary of a sequence of samples: count, mean, min, max,
 * variance (Welford).
 */
class Summary
{
  public:
    void add(double sample);

    /**
     * Fold @p other into this summary as if its samples had been
     * added here (Chan et al. pairwise-merge update of the Welford
     * state).  Merging a fixed set of per-trial summaries in a fixed
     * order is a pure float computation, so the aggregate is
     * bit-identical no matter which thread produced each input — the
     * determinism contract src/exp relies on.
     */
    void merge(const Summary &other);

    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    double min() const;
    double max() const;
    double variance() const;
    double stddev() const;

    /**
     * Lossless state access for checkpointing (campaign resume): m2()
     * is the raw Welford sum of squared deviations; rawMin()/rawMax()
     * the raw extrema (±infinity while empty, unlike min()/max()
     * which report 0).  fromParts() rebuilds a Summary bit-identically
     * from the five values — persist the doubles as bit patterns, not
     * decimal text, or merge() results will drift after a resume.
     */
    double m2() const { return m2_; }
    double rawMin() const { return min_; }
    double rawMax() const { return max_; }
    static Summary fromParts(std::uint64_t count, double mean, double m2,
                             double min, double max);

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Fixed-width-bucket histogram over [lo, hi); samples outside the range
 * are counted in underflow/overflow buckets.  Renders as text, e.g.
 * the Figure-10 latency distributions.
 */
class Histogram
{
  public:
    /**
     * @param lo       Lowest bucketed value.
     * @param hi       One past the highest bucketed value.
     * @param nbuckets Number of equal-width buckets.
     */
    Histogram(double lo, double hi, unsigned nbuckets);

    void add(double sample);

    std::uint64_t count() const { return summary_.count(); }
    const Summary &summary() const { return summary_; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }

    /** Lower edge of bucket @p idx. */
    double bucketLo(unsigned idx) const;

    /** Render as an ASCII bar chart, one bucket per row. */
    std::string render(unsigned width = 50) const;

  private:
    double lo_;
    double hi_;
    double bucketWidth_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    Summary summary_;
};

} // namespace uscope

#endif // USCOPE_COMMON_STATS_HH

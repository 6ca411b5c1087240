/**
 * @file
 * Minimal statistics package: named scalar counters, averages and
 * fixed-bin histograms grouped per component, with a text dump.
 *
 * The inter-arrival-time histograms that motivate MITTS (paper Fig. 2)
 * are instances of stats::Histogram.
 */

#ifndef MITTS_BASE_STATS_HH
#define MITTS_BASE_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "base/logging.hh"

namespace mitts::stats
{

/** Named 64-bit event counter. */
class Counter
{
  public:
    Counter() = default;
    explicit Counter(std::string name) : name_(std::move(name)) {}

    void inc(std::uint64_t n = 1) { value_ += n; }
    void reset() { value_ = 0; }
    /** Overwrite the value (checkpoint restore). */
    void restore(std::uint64_t v) { value_ = v; }
    std::uint64_t value() const { return value_; }
    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::uint64_t value_ = 0;
};

/** Running mean / min / max of a sampled quantity (e.g. latency). */
class Average
{
  public:
    Average() = default;
    explicit Average(std::string name) : name_(std::move(name)) {}

    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
        if (v < min_ || count_ == 1)
            min_ = v;
        if (v > max_ || count_ == 1)
            max_ = v;
    }

    void
    reset()
    {
        sum_ = 0;
        count_ = 0;
        min_ = 0;
        max_ = 0;
    }

    /** Overwrite the accumulators (checkpoint restore). */
    void
    restore(double sum, std::uint64_t count, double min, double max)
    {
        sum_ = sum;
        count_ = count;
        min_ = min;
        max_ = max;
    }

    double
    mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }
    double sum() const { return sum_; }
    std::uint64_t count() const { return count_; }
    double min() const { return min_; }
    double max() const { return max_; }
    const std::string &name() const { return name_; }

  private:
    std::string name_;
    double sum_ = 0;
    std::uint64_t count_ = 0;
    double min_ = 0;
    double max_ = 0;
};

/**
 * Histogram with uniform bins of width `binWidth` covering
 * [0, numBins * binWidth); samples beyond the top land in an overflow
 * bucket.
 */
class Histogram
{
  public:
    Histogram() = default;

    Histogram(std::string name, unsigned num_bins, double bin_width)
        : name_(std::move(name)), width_(bin_width),
          bins_(num_bins, 0)
    {
        MITTS_ASSERT(num_bins > 0 && bin_width > 0,
                     "Histogram needs bins");
    }

    /**
     * Record `n` observations of value `v`. Convention for values the
     * bins cannot represent: negatives, NaN and -inf count as
     * underflow; +inf and anything at or beyond the top edge count as
     * overflow. Non-finite values are excluded from `sum()` so
     * `mean()` stays finite. (The naive `size_t(v / width)` cast is
     * undefined for NaN and for values past 2^64 bins, hence the
     * explicit range checks.)
     */
    void
    sample(double v, std::uint64_t n = 1)
    {
        total_ += n;
        if (!std::isfinite(v)) {
            if (v > 0)
                overflow_ += n;
            else
                underflow_ += n;
            return;
        }
        sum_ += v * static_cast<double>(n);
        if (v < 0) {
            underflow_ += n;
            return;
        }
        const double scaled = v / width_;
        if (scaled >= static_cast<double>(bins_.size()))
            overflow_ += n;
        else
            bins_[static_cast<std::size_t>(scaled)] += n;
    }

    void
    reset()
    {
        std::fill(bins_.begin(), bins_.end(), 0);
        underflow_ = overflow_ = total_ = 0;
        sum_ = 0;
    }

    /** Overwrite bins and accumulators (checkpoint restore); the
     *  geometry (bin count, width) is construction-time fixed. */
    void
    restore(std::vector<std::uint64_t> bins, std::uint64_t underflow,
            std::uint64_t overflow, std::uint64_t total, double sum)
    {
        MITTS_ASSERT(bins.size() == bins_.size(),
                     "Histogram::restore: bin count mismatch");
        bins_ = std::move(bins);
        underflow_ = underflow;
        overflow_ = overflow;
        total_ = total;
        sum_ = sum;
    }

    std::uint64_t bin(std::size_t i) const { return bins_.at(i); }
    double sum() const { return sum_; }
    std::size_t numBins() const { return bins_.size(); }
    double binWidth() const { return width_; }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t total() const { return total_; }
    double
    mean() const
    {
        return total_ ? sum_ / static_cast<double>(total_) : 0.0;
    }
    const std::string &name() const { return name_; }

    /** Fraction of samples in bin i (0 when empty). */
    double
    fraction(std::size_t i) const
    {
        return total_ ? static_cast<double>(bins_.at(i)) /
                            static_cast<double>(total_)
                      : 0.0;
    }

    /**
     * Value below which fraction `p` of the samples fall, linearly
     * interpolated within the containing bin.
     *
     * Edge-case convention (all cases return defined values):
     *  - Empty histogram: 0 for every p.
     *  - p is clamped to [0, 1]; a non-finite p (NaN) behaves like 0.
     *  - p == 0 (or all mass below 0): the smallest value the
     *    histogram can name — 0 if there is underflow mass, else the
     *    lower edge of the first populated bin, else the top edge
     *    (every sample overflowed).
     *  - Underflow samples count as 0.
     *  - Percentiles landing in the overflow bucket clamp to the top
     *    edge `numBins * binWidth` (the histogram does not know how
     *    far beyond it they went).
     */
    double percentile(double p) const;

    /** Render a one-line-per-bin ASCII bar chart. */
    void print(std::ostream &os, unsigned max_width = 50) const;

  private:
    std::string name_;
    double width_ = 1;
    std::vector<std::uint64_t> bins_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
    double sum_ = 0;
};

/**
 * A named group of statistics belonging to one component. Components
 * register their stats so System::dumpStats can walk everything.
 */
class Group
{
  public:
    explicit Group(std::string name) : name_(std::move(name)) {}

    Counter &addCounter(const std::string &name);
    Average &addAverage(const std::string &name);
    Histogram &addHistogram(const std::string &name, unsigned bins,
                            double width);

    void dump(std::ostream &os) const;
    void reset();

    const std::string &name() const { return name_; }

    /** Read access for the checkpoint walk (ckpt/serialize.cc). */
    const std::vector<std::unique_ptr<Counter>> &counters() const
    {
        return counters_;
    }
    const std::vector<std::unique_ptr<Average>> &averages() const
    {
        return averages_;
    }
    const std::vector<std::unique_ptr<Histogram>> &histograms() const
    {
        return histograms_;
    }

  private:
    std::string name_;
    // Deques keep references stable across registration.
    std::vector<std::unique_ptr<Counter>> counters_;
    std::vector<std::unique_ptr<Average>> averages_;
    std::vector<std::unique_ptr<Histogram>> histograms_;
};

} // namespace mitts::stats

#endif // MITTS_BASE_STATS_HH

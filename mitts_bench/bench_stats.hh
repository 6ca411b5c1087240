/**
 * @file
 * Order statistics for the benchmark's summaries.
 */

#ifndef MITTS_BENCH_BENCH_STATS_HH
#define MITTS_BENCH_BENCH_STATS_HH

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

namespace mitts_bench
{

/** Percentile `p` in [0, 1] by linear interpolation between closest
 *  ranks (numpy's default). */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double
median(const std::vector<double> &v)
{
    return percentile(v, 0.5);
}

/** Q1 and Q3, as statistics.quantiles(v, n=4, method="inclusive")
 *  gives them. Unlike the default "exclusive" method, it does not
 *  reach past the second-smallest and second-largest of five samples,
 *  so one disturbed rep cannot widen a set's spread on its own. */
inline std::array<double, 2>
quartiles(const std::vector<double> &v)
{
    return {percentile(v, 0.25), percentile(v, 0.75)};
}

} // namespace mitts_bench

#endif // MITTS_BENCH_BENCH_STATS_HH

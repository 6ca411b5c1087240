/**
 * @file
 * Constant-rate source limiter — the "static bandwidth allocation"
 * baseline of paper Sec. IV-C/IV-F. A token bucket with configurable
 * (small) depth limits a core to one memory request per `interval`
 * cycles on average, with no notion of inter-arrival distribution.
 * Tokens are exact integers (base/token_bucket.hh), so a blocked
 * L1 sleeps until the bucket refills instead of polling it.
 */

#ifndef MITTS_SHAPER_STATIC_GATE_HH
#define MITTS_SHAPER_STATIC_GATE_HH

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "base/stats.hh"
#include "base/token_bucket.hh"
#include "cache/interfaces.hh"
#include "ckpt/serialize.hh"

namespace mitts
{

class StaticRateGate : public SourceGate, public ckpt::Serializable
{
  public:
    /** Fixed-point token units per cycle: a request costs
     *  interval * kUnitsPerCycle units, rounded to the nearest. */
    static constexpr std::uint64_t kUnitsPerCycle = 1 << 16;

    /**
     * @param interval cycles per permitted request (e.g. 1 GB/s at
     *                 2.4 GHz and 64B blocks => 154 cycles)
     * @param depth    bucket depth; 1.0 = strictly periodic
     */
    StaticRateGate(std::string name, double interval,
                   double depth = 1.0)
        : interval_(interval),
          cost_(static_cast<std::uint64_t>(std::llround(
              interval * static_cast<double>(kUnitsPerCycle)))),
          cap_(static_cast<std::uint64_t>(
              std::llround(depth * static_cast<double>(cost_)))),
          stats_(std::move(name)),
          issued_(stats_.addCounter("issued")),
          stalls_(stats_.addCounter("stall_cycles"))
    {
        MITTS_ASSERT(interval > 0 && depth >= 1.0,
                     "bad static gate parameters");
        bucket_.level = cap_;
    }

    bool
    tryIssue(MemRequest &req, Tick now) override
    {
        (void)req;
        bucket_.refill(now, kUnitsPerCycle, cap_);
        if (bucket_.take(cost_)) {
            issued_.inc();
            return true;
        }
        stalls_.inc();
        return false;
    }

    Tick
    nextIssueTick(Tick now) const override
    {
        return std::max(bucket_.readyTick(kUnitsPerCycle, cap_, cost_),
                        now + 1);
    }

    void onSkippedStalls(Tick cycles) override { stalls_.inc(cycles); }

    /** Average allowed bandwidth in GB/s at `cpu_ghz`. */
    double
    bandwidthGBps(double cpu_ghz) const
    {
        return kBlockBytes * cpu_ghz / interval_;
    }

    double interval() const { return interval_; }
    stats::Group &statsGroup() { return stats_; }

  protected:
    void
    checkpoint(ckpt::Archive &a) override
    {
        a.u64(bucket_.level);
        a.u64(bucket_.last);
        a.group(stats_);
    }

  private:
    const double interval_;
    const std::uint64_t cost_; ///< token units per request
    const std::uint64_t cap_;  ///< bucket depth in token units
    TokenBucket bucket_;

    stats::Group stats_;
    stats::Counter &issued_;
    stats::Counter &stalls_;
};

} // namespace mitts

#endif // MITTS_SHAPER_STATIC_GATE_HH

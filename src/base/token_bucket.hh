/**
 * @file
 * Exact integer token bucket: the state behind the static bandwidth
 * limiter and FST's per-core throttles.
 *
 * Tokens are fixed-point integers. The bucket gains `rate` units per
 * cycle up to `cap`, and an issue costs `cost` units. Refill adds and
 * saturates, so refilling an idle gap in one step leaves exactly the
 * state that any split of the gap into smaller refills leaves. That
 * is what lets a gate-blocked L1 sleep through skip-ahead: the
 * refused per-cycle calls of the reference kernel change nothing one
 * catch-up refill does not, and readyTick() is the closed form of the
 * first cycle a take() succeeds.
 */

#ifndef MITTS_BASE_TOKEN_BUCKET_HH
#define MITTS_BASE_TOKEN_BUCKET_HH

#include <cstdint>

#include "base/bitutil.hh"
#include "base/types.hh"

namespace mitts
{

struct TokenBucket
{
    std::uint64_t level = 0; ///< tokens held, in fixed-point units
    Tick last = 0;           ///< cycle `level` is accounted up to

    /** Accrue `rate` units per cycle over (last, now], capped at
     *  `cap` (saturating, never overflowing, for any gap). */
    void
    refill(Tick now, std::uint64_t rate, std::uint64_t cap)
    {
        if (now > last && rate > 0 && level < cap) {
            const std::uint64_t room = cap - level;
            const Tick dt = now - last;
            level = dt > room / rate ? cap : level + rate * dt;
        }
        last = now;
    }

    /** Spend `cost` units if the bucket holds them. */
    bool
    take(std::uint64_t cost)
    {
        if (level < cost)
            return false;
        level -= cost;
        return true;
    }

    /** First cycle at which a refill at `rate` lets take(cost)
     *  succeed (`last` when it already would; kTickNever when it
     *  never can). */
    Tick
    readyTick(std::uint64_t rate, std::uint64_t cap,
              std::uint64_t cost) const
    {
        if (level >= cost)
            return last;
        if (rate == 0 || cap < cost)
            return kTickNever;
        return last + divCeil(cost - level, rate);
    }
};

} // namespace mitts

#endif // MITTS_BASE_TOKEN_BUCKET_HH

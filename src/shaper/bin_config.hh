/**
 * @file
 * Bin geometry and credit configuration for the MITTS traffic shaper
 * (paper Table I).
 *
 * Bin i covers inter-arrival times [i*L, (i+1)*L) and is represented
 * by its centre t_i = i*L + L/2. A configuration assigns K_i credits
 * to each bin; the histogram of credits *is* the traffic distribution
 * the shaper enforces per replenishment period T_r.
 */

#ifndef MITTS_SHAPER_BIN_CONFIG_HH
#define MITTS_SHAPER_BIN_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"

namespace mitts
{

namespace ckpt
{
class Archive;
} // namespace ckpt

/** Most bins a shaper supports (one 64-bit credit occupancy mask). */
constexpr unsigned kMaxBins = 64;

/** How bin credits come back (paper Sec. III-B2). */
enum class ReplenishPolicy
{
    Reset,   ///< Algorithm 1: all bins reset to K_i every T_r
    Rolling, ///< each bin accrues credits continuously at K_i / T_r
};

/** Geometry shared by every configuration of one shaper. */
struct BinSpec
{
    unsigned numBins = 10;        ///< N (paper uses 10)
    Tick intervalLength = 10;     ///< L in CPU cycles (paper uses 10)
    Tick replenishPeriod = 10'000;///< T_r
    std::uint32_t maxCredits = 1024; ///< K_max (10-bit registers)
    ReplenishPolicy policy = ReplenishPolicy::Reset;

    /** Representative inter-arrival time t_i of bin i (the centre). */
    Tick
    binTime(unsigned i) const
    {
        MITTS_ASSERT(i < numBins, "bin index out of range");
        return static_cast<Tick>(i) * intervalLength +
               intervalLength / 2;
    }

    /** Bin an observed inter-arrival time falls into (Table I). */
    unsigned
    binOf(Tick inter_arrival) const
    {
        const Tick idx = inter_arrival / intervalLength;
        return static_cast<unsigned>(
            idx >= numBins ? numBins - 1 : idx);
    }

    /**
     * The paper's replenishment-period formula
     * T_r = sum_i K_max * t_i. With K_max = 1024 this is very long;
     * the default spec uses a configurable shorter period instead
     * (see DESIGN.md).
     */
    Tick
    paperReplenishPeriod(std::uint32_t k_max) const
    {
        Tick sum = 0;
        for (unsigned i = 0; i < numBins; ++i)
            sum += binTime(i);
        return static_cast<Tick>(k_max) * sum;
    }

    bool
    operator==(const BinSpec &o) const
    {
        return numBins == o.numBins &&
               intervalLength == o.intervalLength &&
               replenishPeriod == o.replenishPeriod &&
               maxCredits == o.maxCredits && policy == o.policy;
    }
};

/** A credit assignment K_0..K_{N-1} over a BinSpec. */
struct BinConfig
{
    BinSpec spec;
    std::vector<std::uint32_t> credits; ///< K_i, clamped to maxCredits

    BinConfig() : credits(spec.numBins, 0) {}

    explicit BinConfig(const BinSpec &s)
        : spec(s), credits(s.numBins, 0)
    {
    }

    BinConfig(const BinSpec &s, std::vector<std::uint32_t> k)
        : spec(s), credits(std::move(k))
    {
        MITTS_ASSERT(credits.size() == spec.numBins,
                     "credit vector size mismatch");
        clamp();
    }

    /** Enforce the K_max register width. */
    void
    clamp()
    {
        for (auto &k : credits)
            k = std::min(k, spec.maxCredits);
    }

    /** Total credits per period (total traffic allowance). */
    std::uint64_t
    totalCredits() const
    {
        std::uint64_t sum = 0;
        for (auto k : credits)
            sum += k;
        return sum;
    }

    /** I_avg = sum(n_i * t_i) / sum(n_i), in cycles (Sec. IV-C). */
    double
    avgInterval() const
    {
        const std::uint64_t total = totalCredits();
        if (total == 0)
            return 0.0;
        double weighted = 0.0;
        for (unsigned i = 0; i < spec.numBins; ++i)
            weighted += static_cast<double>(credits[i]) *
                        static_cast<double>(spec.binTime(i));
        return weighted / static_cast<double>(total);
    }

    /** B_avg in blocks per cycle: total allowance over the period. */
    double
    avgBandwidthBlocksPerCycle() const
    {
        return static_cast<double>(totalCredits()) /
               static_cast<double>(spec.replenishPeriod);
    }

    /** B_avg in GB/s given the CPU frequency. */
    double
    avgBandwidthGBps(double cpu_ghz) const
    {
        // blocks/cycle * bytes/block * cycles/second
        return avgBandwidthBlocksPerCycle() * kBlockBytes * cpu_ghz;
    }

    /** All credits in a single bin (the "static" shape of Fig. 18). */
    static BinConfig
    singleBin(const BinSpec &s, unsigned bin, std::uint32_t k)
    {
        BinConfig c(s);
        MITTS_ASSERT(bin < s.numBins, "bin out of range");
        c.credits[bin] = std::min(k, s.maxCredits);
        return c;
    }

    /** Same credit count in every bin. */
    static BinConfig
    uniform(const BinSpec &s, std::uint32_t k)
    {
        BinConfig c(s);
        for (auto &slot : c.credits)
            slot = std::min(k, s.maxCredits);
        return c;
    }

    /**
     * Total credits that correspond to an average bandwidth (GB/s)
     * over one replenishment period at the given CPU frequency.
     */
    static std::uint64_t
    creditsForBandwidth(const BinSpec &s, double gbps, double cpu_ghz)
    {
        const double blocks_per_cycle =
            gbps / (kBlockBytes * cpu_ghz);
        return static_cast<std::uint64_t>(
            blocks_per_cycle *
                static_cast<double>(s.replenishPeriod) +
            0.5);
    }

    std::string toString() const;

    bool
    operator==(const BinConfig &o) const
    {
        return spec == o.spec && credits == o.credits;
    }
};

/** Checkpoint a BinConfig: numBins, intervalLength, replenishPeriod,
 *  maxCredits (u64 each), the policy byte, then the credits. Restore
 *  throws ckpt::Error on 0 or more than kMaxBins bins, a zero
 *  interval length or replenish period, a maxCredits beyond 32 bits,
 *  an unknown policy byte, or a credit count other than numBins. */
void binConfig(ckpt::Archive &a, BinConfig &c);

} // namespace mitts

#endif // MITTS_SHAPER_BIN_CONFIG_HH

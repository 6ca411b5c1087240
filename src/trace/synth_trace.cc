#include "trace/synth_trace.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace mitts
{

const PhaseSpec SyntheticTrace::kDefaultPhase{0, 1.0, 1.0, 1.0};

SyntheticTrace::SyntheticTrace(const AppProfile &profile, Addr base_addr,
                               std::uint64_t seed, unsigned thread_id)
    : profile_(profile), base_(base_addr), seed_(seed),
      threadId_(thread_id), rng_(seed)
{
    MITTS_ASSERT(profile_.workingSetBytes >= kBlockBytes,
                 "working set too small");
    if (!profile_.phases.empty())
        phaseIdx_ = thread_id % profile_.phases.size();
    streamBlock_ = randomBlock(profile_.workingSetBytes);
}

void
SyntheticTrace::reset()
{
    // A fresh trace from the same construction arguments: every
    // cursor (RNG, burst, stream, warm run, phase) restarts together.
    *this = SyntheticTrace(profile_, base_, seed_, threadId_);
}

const PhaseSpec &
SyntheticTrace::currentPhase() const
{
    return profile_.phases.empty() ? kDefaultPhase
                                   : profile_.phases[phaseIdx_];
}

void
SyntheticTrace::advancePhase()
{
    if (profile_.phases.empty())
        return;
    if (++opsInPhase_ >= currentPhase().lengthOps) {
        opsInPhase_ = 0;
        phaseIdx_ = (phaseIdx_ + 1) % profile_.phases.size();
    }
}

Addr
SyntheticTrace::randomBlock(Addr region_bytes)
{
    const std::uint64_t blocks =
        std::max<std::uint64_t>(1, region_bytes / kBlockBytes);
    return base_ + rng_.below(blocks) * kBlockBytes;
}

TraceOp
SyntheticTrace::next()
{
    const PhaseSpec &phase = currentPhase();

    // Markov burst modulation of memory intensity, optionally with a
    // deterministic burst length and a refractory calm gap.
    if (inBurst_) {
        bool ended;
        if (profile_.burstLenOps > 0)
            ended = ++burstOps_ >= profile_.burstLenOps;
        else
            ended = rng_.chance(profile_.burstExitProb);
        if (ended) {
            inBurst_ = false;
            burstOps_ = 0;
            calmOps_ = 0;
        }
    } else if (profile_.burstEnterProb > 0) {
        ++calmOps_;
        if (calmOps_ >= profile_.burstMinGapOps &&
            rng_.chance(profile_.burstEnterProb))
            inBurst_ = true;
    }

    double mem_frac = profile_.memFraction * phase.intensityScale;
    if (inBurst_)
        mem_frac *= profile_.burstIntensityScale;
    mem_frac = std::clamp(mem_frac, 0.005, 0.9);

    TraceOp op;

    // Non-memory gap: geometric with success probability mem_frac,
    // sampled in O(1) via inversion (this is the simulator's hottest
    // function).
    std::uint32_t gap = 0;
    if (mem_frac < 1.0) {
        if (mem_frac != cachedMemFrac_) {
            cachedMemFrac_ = mem_frac;
            cachedInvLog_ = 1.0 / std::log1p(-mem_frac);
        }
        const double u = rng_.real();
        if (u > 0.0) {
            const double g = std::log(u) * cachedInvLog_;
            gap = g > 100'000.0 ? 100'000u
                                : static_cast<std::uint32_t>(g);
        }
    }

    // Server-style idle pause between request bursts.
    const double idle_frac = profile_.idleFraction * phase.idleScale;
    if (idle_frac > 0 && rng_.chance(idle_frac))
        gap += profile_.idleGapInstrs;
    op.gap = gap;

    op.isWrite = rng_.chance(profile_.writeFraction);

    // Address: hot set (cache-resident), stream, or random over the
    // working set.
    double stream_frac =
        std::clamp(profile_.streamFraction * phase.streamScale, 0.0,
                   1.0);
    const double hot_frac =
        profile_.hotFraction *
        (inBurst_ ? profile_.burstHotScale : 1.0);
    // Preserve the relative proportions of the non-hot tiers when a
    // burst shrinks the hot set (the extra mass walks the same warm
    // structures and cold regions the app always walks).
    const double mix_scale =
        profile_.hotFraction < 1.0
            ? (1.0 - hot_frac) / (1.0 - profile_.hotFraction)
            : 1.0;
    const double warm_frac = profile_.warmFraction * mix_scale;
    const double mid_frac = profile_.midFraction * mix_scale;
    // Burst ops biased onto the warm walk produce the clustered
    // memory requests MITTS absorbs and a larger LLC removes.
    const bool force_warm =
        inBurst_ && rng_.chance(profile_.burstWarmBias);
    const double r = rng_.real();
    if (!force_warm && r < hot_frac) {
        op.addr = randomBlock(std::min(profile_.hotSetBytes,
                                       profile_.workingSetBytes));
    } else if (!force_warm && r < hot_frac + mid_frac) {
        // L2-resident tier: L1 misses that hit the LLC.
        op.addr = randomBlock(std::min(profile_.midSetBytes,
                                       profile_.workingSetBytes));
    } else if (force_warm ||
               r < hot_frac + mid_frac + warm_frac) {
        // Warm tier: reused often enough to live in a megabyte-class
        // LLC but far too big for a 64KB one. Accessed in short
        // sequential runs (structure walks), so when the tier does
        // not fit, its misses arrive in tight clusters — this is the
        // mass a larger LLC removes from the short-inter-arrival
        // bins (paper Fig. 2's rightward shift).
        const Addr warm_bytes = std::min(profile_.warmSetBytes,
                                         profile_.workingSetBytes);
        if (warmLeft_ == 0) {
            warmBlock_ = randomBlock(warm_bytes);
            warmLeft_ = std::max(1u, profile_.warmRunBlocks);
        }
        op.addr = warmBlock_;
        warmBlock_ += kBlockBytes;
        if (warmBlock_ >= base_ + warm_bytes)
            warmBlock_ = base_;
        --warmLeft_;
    } else if (r < hot_frac + mid_frac + warm_frac +
                       stream_frac * mix_scale) {
        const Addr region = profile_.streamRegionBytes
                                ? std::min(profile_.streamRegionBytes,
                                           profile_.workingSetBytes)
                                : profile_.workingSetBytes;
        if (streamLeft_ == 0) {
            streamBlock_ = randomBlock(region);
            streamLeft_ = std::max(1u, profile_.streamLenBlocks);
        }
        op.addr = streamBlock_;
        if (++streamOpInBlock_ >=
            std::max(1u, profile_.streamOpsPerBlock)) {
            streamOpInBlock_ = 0;
            streamBlock_ += kBlockBytes;
            if (streamBlock_ >= base_ + region)
                streamBlock_ = base_;
            --streamLeft_;
        }
    } else {
        op.addr = randomBlock(profile_.workingSetBytes);
        // The cold tier is where pointer chasing lives.
        op.dependsOnPrev =
            !op.isWrite && rng_.chance(profile_.chainFraction);
    }

    advancePhase();
    return op;
}

void
SyntheticTrace::checkpoint(ckpt::Archive &a)
{
    a.rng(rng_);
    a.b(inBurst_);
    a.narrow(burstOps_, "synthetic trace burst length");
    a.narrow(calmOps_, "synthetic trace calm length");
    a.u64(streamBlock_);
    a.narrow(streamLeft_, "synthetic trace stream length");
    a.narrow(streamOpInBlock_, "synthetic trace stream offset");
    a.u64(warmBlock_);
    a.narrow(warmLeft_, "synthetic trace warm length");
    a.f64(cachedMemFrac_);
    a.f64(cachedInvLog_);
    a.narrow(phaseIdx_, "synthetic trace phase");
    a.u64(opsInPhase_);
    a.check(phaseIdx_ == 0 || phaseIdx_ < profile_.phases.size(),
            "synthetic trace phase out of range");
}

} // namespace mitts

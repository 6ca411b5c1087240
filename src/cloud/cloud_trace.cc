#include "cloud/cloud_trace.hh"

#include <cmath>
#include <limits>

#include "base/logging.hh"
#include "trace/app_profile.hh"

namespace mitts::cloud
{

namespace
{

/** splitmix64-style seed mix so successive generations get
 *  decorrelated inner streams. */
std::uint64_t
mixSeed(std::uint64_t base, std::uint64_t generation)
{
    std::uint64_t z = base + 0x9E3779B97F4A7C15ULL * (generation + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

} // namespace

CloudTrace::CloudTrace(Addr base, std::uint64_t seed_base)
    : base_(base), seedBase_(seed_base)
{
}

void
CloudTrace::rebuild()
{
    AppProfile prof = appProfile(profileName_);
    prof.numThreads = 1; // a slot is one core
    inner_ = std::make_unique<SyntheticTrace>(
        prof, base_, mixSeed(seedBase_, generation_), 0);
}

void
CloudTrace::occupy(const std::string &profile_name,
                   std::uint64_t generation)
{
    MITTS_ASSERT(!occupied_, "occupy() on an occupied slot trace");
    occupied_ = true;
    profileName_ = profile_name;
    generation_ = generation;
    stretch_ = 1.0;
    gapCarry_ = 0.0;
    rebuild();
}

void
CloudTrace::vacate()
{
    MITTS_ASSERT(occupied_, "vacate() on a free slot trace");
    occupied_ = false;
    profileName_.clear();
    inner_.reset();
}

void
CloudTrace::setStretch(double stretch)
{
    MITTS_ASSERT(stretch >= 1.0, "stretch must be >= 1");
    stretch_ = stretch;
}

TraceOp
CloudTrace::next()
{
    MITTS_ASSERT(occupied_ && inner_,
                 "next() on a free slot trace (core not halted?)");
    TraceOp op = inner_->next();
    if (stretch_ > 1.0) {
        // Stretch the whole op (gap instructions + the memory op
        // itself) by the diurnal factor; the carry keeps the
        // long-run ratio exact across ops.
        const double extra =
            (stretch_ - 1.0) * (static_cast<double>(op.gap) + 1.0) +
            gapCarry_;
        const double whole = std::floor(extra);
        gapCarry_ = extra - whole;
        const double room = static_cast<double>(
            std::numeric_limits<std::uint32_t>::max() - op.gap);
        op.gap += static_cast<std::uint32_t>(std::min(whole, room));
    }
    return op;
}

void
CloudTrace::reset()
{
    gapCarry_ = 0.0;
    if (inner_)
        inner_->reset();
}

void
CloudTrace::checkpoint(ckpt::Archive &a)
{
    a.b(occupied_);
    a.str(profileName_);
    a.u64(generation_);
    a.f64(stretch_);
    a.f64(gapCarry_);
    if (!a.saving() && occupied_)
        rebuild();
    else if (!a.saving())
        inner_.reset();
    if (occupied_)
        a.state(*inner_);
}

} // namespace mitts::cloud

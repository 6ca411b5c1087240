#ifndef FIXTURE_R9_BAD_HH
#define FIXTURE_R9_BAD_HH

#include <cstdint>

// R9: checkpoint field coverage. `missing_` never appears in the
// checkpoint walk; the transient on `staleTr_` is stale (the field IS
// walked) and the one above the comment block is attached to no field
// at all.
struct Widget
{
    void
    checkpoint(ckpt::Archive &a)
    {
        a.u32(covered_);
        a.u64(ticks_);
        a.f64(staleTr_);
    }

    std::uint32_t covered_ = 0;
    std::uint64_t ticks_ = 0;
    std::uint64_t missing_ = 0;
    // detlint-transient(stale: the field below is fully covered)
    double staleTr_ = 0.0;

    // detlint-transient(floating: attached to nothing)

    void reset() { missing_ = 0; }
};

#endif // FIXTURE_R9_BAD_HH

#ifndef FIXTURE_R9_ALLOWED_HH
#define FIXTURE_R9_ALLOWED_HH

#include <cstdint>
#include <vector>

struct Config
{
    unsigned depth = 4;
};

// R9 clean: `bins_` is covered through one level of delegation
// (walkBins), `seed_` carries a reasoned transient, and the
// static/const/ref/ptr/mutable members are exempt by flag.
class Gadget
{
  public:
    explicit Gadget(Config &cfg) : cfg_(cfg) {}

    void
    checkpoint(ckpt::Archive &a)
    {
        a.u64(val_);
        walkBins(a);
    }

  private:
    void
    walkBins(ckpt::Archive &a)
    {
        a.seq(bins_, [&](std::uint32_t &b) { a.u32(b); });
    }

    static constexpr unsigned kMax_ = 64;
    Config &cfg_;
    const unsigned limit_ = 8;
    Gadget *next_ = nullptr;
    mutable std::uint64_t scanCache_ = 0;
    // detlint-transient(construction seed; live RNG state is saved)
    std::uint64_t seed_ = 1;
    std::uint64_t val_ = 0;
    std::vector<std::uint32_t> bins_;
};

#endif // FIXTURE_R9_ALLOWED_HH

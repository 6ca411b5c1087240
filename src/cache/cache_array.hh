/**
 * @file
 * Set-associative tag array with true-LRU replacement.
 */

#ifndef MITTS_CACHE_CACHE_ARRAY_HH
#define MITTS_CACHE_CACHE_ARRAY_HH

#include <cstdint>
#include <vector>

#include "base/bitutil.hh"
#include "base/logging.hh"
#include "base/types.hh"
#include "ckpt/serialize.hh"

namespace mitts
{

/** Evicted line descriptor returned by CacheArray::insert. */
struct Victim
{
    bool valid = false;
    bool dirty = false;
    Addr blockAddr = kAddrInvalid;
};

/**
 * Why a `size_bytes`, `assoc` cache cannot be built (the set count
 * must be a positive power of two), or nullptr if it can. Config
 * readers check sizes from outside input here instead of reaching
 * CacheArray's assertion.
 */
const char *cacheGeometryError(std::size_t size_bytes, unsigned assoc);

/**
 * Tags only — the simulator never models data contents. Addresses are
 * block addresses (low 6 bits zero). The lines live in one flat
 * `sets x assoc` vector, set-major, so a lookup is one index and a
 * scan of `assoc` adjacent lines.
 */
class CacheArray
{
  public:
    CacheArray(std::size_t size_bytes, unsigned assoc);

    /** Probe without updating replacement state. */
    bool contains(Addr block_addr) const
    {
        return findLine(block_addr) != nullptr;
    }

    /**
     * Probe and, on a hit, update LRU and (for a store, `dirty`) set
     * the dirty bit in the same search. @return true on hit.
     */
    bool
    touch(Addr block_addr, bool dirty = false)
    {
        Line *line = findLine(block_addr);
        if (!line)
            return false;
        line->lastUse = ++useClock_;
        line->dirty |= dirty;
        return true;
    }

    /** Set the dirty bit (line must be present). */
    void markDirty(Addr block_addr);

    /** True iff the present line is dirty. */
    bool isDirty(Addr block_addr) const;

    /**
     * Install a line (must not be present), evicting the LRU way if
     * the set is full. @return descriptor of the evicted line.
     */
    Victim insert(Addr block_addr, bool dirty);

    std::size_t numSets() const { return setMask_ + 1; }
    unsigned assoc() const { return assoc_; }
    std::size_t sizeBytes() const
    {
        return lines_.size() * kBlockBytes;
    }

    /** Checkpoint every tag/LRU bit (geometry is construction-time). */
    void saveState(ckpt::Writer &w) const;
    void loadState(ckpt::Reader &r);

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
    };

    /** First line of `block_addr`'s set. */
    Line *
    setOf(Addr block_addr)
    {
        return &lines_[((block_addr >> kBlockShift) & setMask_) *
                       assoc_];
    }

    std::uint64_t
    tagOf(Addr block_addr) const
    {
        return block_addr >> (kBlockShift + setBits_);
    }

    Line *
    findLine(Addr block_addr)
    {
        const std::uint64_t tag = tagOf(block_addr);
        Line *set = setOf(block_addr);
        for (unsigned w = 0; w < assoc_; ++w) {
            if (set[w].valid && set[w].tag == tag)
                return &set[w];
        }
        return nullptr;
    }

    const Line *
    findLine(Addr block_addr) const
    {
        return const_cast<CacheArray *>(this)->findLine(block_addr);
    }

    static constexpr unsigned kBlockShift = floorLog2(kBlockBytes);

    unsigned assoc_;
    std::uint64_t setMask_; ///< number of sets - 1
    // detlint-transient(derived from geometry at construction)
    unsigned setBits_; ///< log2(number of sets)
    std::vector<Line> lines_;
    std::uint64_t useClock_ = 0;
};

} // namespace mitts

#endif // MITTS_CACHE_CACHE_ARRAY_HH

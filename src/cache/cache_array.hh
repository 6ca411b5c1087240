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
 * block addresses (low 6 bits zero).
 */
class CacheArray
{
  public:
    CacheArray(std::size_t size_bytes, unsigned assoc);

    /** Probe without updating replacement state. */
    bool contains(Addr block_addr) const;

    /** Probe and update LRU on hit. @return true on hit. */
    bool touch(Addr block_addr);

    /** Set the dirty bit (line must be present). */
    void markDirty(Addr block_addr);

    /** True iff the present line is dirty. */
    bool isDirty(Addr block_addr) const;

    /**
     * Install a line (must not be present), evicting the LRU way if
     * the set is full. @return descriptor of the evicted line.
     */
    Victim insert(Addr block_addr, bool dirty);

    /** Remove a line if present (back-invalidation). */
    void invalidate(Addr block_addr);

    std::size_t numSets() const { return sets_.size(); }
    unsigned assoc() const { return assoc_; }
    std::size_t sizeBytes() const
    {
        return sets_.size() * assoc_ * kBlockBytes;
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

    using Set = std::vector<Line>;

    std::size_t setIndex(Addr block_addr) const;
    std::uint64_t tagOf(Addr block_addr) const;
    Line *findLine(Addr block_addr);
    const Line *findLine(Addr block_addr) const;

    unsigned assoc_;
    // detlint-transient(derived from geometry at construction)
    unsigned setShift_;   ///< log2(block size)
    // detlint-transient(derived from geometry at construction)
    std::uint64_t setMask_;
    std::vector<Set> sets_;
    std::uint64_t useClock_ = 0;
};

} // namespace mitts

#endif // MITTS_CACHE_CACHE_ARRAY_HH

/**
 * @file
 * Miss Status Holding Registers with target coalescing.
 */

#ifndef MITTS_CACHE_MSHR_HH
#define MITTS_CACHE_MSHR_HH

#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "ckpt/serialize.hh"

namespace mitts
{

/** One outstanding miss and the accesses waiting on its fill. */
struct Mshr
{
    bool valid = false;
    Addr blockAddr = kAddrInvalid;
    bool storeSeen = false; ///< fill must install dirty
    Tick allocatedAt = 0;
    std::vector<SeqNum> waitingLoads; ///< loads to wake on fill
};

/** Fixed-size MSHR file (8 per L1 in the paper's Table II). */
class MshrFile
{
  public:
    MshrFile(unsigned num_entries, unsigned max_targets)
        : entries_(num_entries), maxTargets_(max_targets)
    {
    }

    /** Find the in-flight miss covering this block, if any. */
    Mshr *
    find(Addr block_addr)
    {
        for (auto &m : entries_) {
            if (m.valid && m.blockAddr == block_addr)
                return &m;
        }
        return nullptr;
    }

    /** Any free entry? */
    bool
    full() const
    {
        for (const auto &m : entries_) {
            if (!m.valid)
                return false;
        }
        return true;
    }

    /** Allocate a new entry (must not be full, block not present). */
    Mshr &
    allocate(Addr block_addr, Tick now)
    {
        MITTS_ASSERT(!find(block_addr), "duplicate MSHR");
        for (auto &m : entries_) {
            if (!m.valid) {
                m.valid = true;
                m.blockAddr = block_addr;
                m.storeSeen = false;
                m.allocatedAt = now;
                m.waitingLoads.clear();
                return m;
            }
        }
        panic("MshrFile::allocate on full file");
    }

    /** Can one more access coalesce into this entry? */
    bool
    canCoalesce(const Mshr &m) const
    {
        return m.waitingLoads.size() < maxTargets_;
    }

    void
    release(Mshr &m)
    {
        MITTS_ASSERT(m.valid, "releasing free MSHR");
        m.valid = false;
    }

    unsigned
    inUse() const
    {
        unsigned n = 0;
        for (const auto &m : entries_)
            n += m.valid ? 1 : 0;
        return n;
    }

    unsigned size() const
    {
        return static_cast<unsigned>(entries_.size());
    }

    /** Every entry, valid or not, in file order. */
    const std::vector<Mshr> &entries() const { return entries_; }

    void
    checkpoint(ckpt::Archive &a)
    {
        a.expect(entries_.size(), "MSHR entry count mismatch");
        for (auto &m : entries_) {
            a.b(m.valid);
            a.u64(m.blockAddr);
            a.b(m.storeSeen);
            a.u64(m.allocatedAt);
            a.vecU64(m.waitingLoads);
        }
    }

  private:
    std::vector<Mshr> entries_;
    // detlint-transient(construction-time config; never mutated after build)
    unsigned maxTargets_;
};

} // namespace mitts

#endif // MITTS_CACHE_MSHR_HH

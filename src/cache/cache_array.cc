#include "cache/cache_array.hh"

namespace mitts
{

const char *
cacheGeometryError(std::size_t size_bytes, unsigned assoc)
{
    if (assoc == 0)
        return "associativity must be positive";
    const std::size_t lines = size_bytes / kBlockBytes;
    if (lines % assoc != 0)
        return "size not divisible by assoc";
    if (!isPowerOf2(lines / assoc))
        return "set count must be a power of 2";
    return nullptr;
}

CacheArray::CacheArray(std::size_t size_bytes, unsigned assoc)
    : assoc_(assoc)
{
    const char *bad = cacheGeometryError(size_bytes, assoc);
    MITTS_ASSERT(!bad, bad);
    const std::size_t num_sets = size_bytes / kBlockBytes / assoc;
    setMask_ = num_sets - 1;
    setBits_ = floorLog2(num_sets);
    lines_.assign(num_sets * assoc, Line{});
}

void
CacheArray::markDirty(Addr block_addr)
{
    Line *line = findLine(block_addr);
    MITTS_ASSERT(line, "markDirty on absent line");
    line->dirty = true;
}

bool
CacheArray::isDirty(Addr block_addr) const
{
    const Line *line = findLine(block_addr);
    return line && line->dirty;
}

Victim
CacheArray::insert(Addr block_addr, bool dirty)
{
    MITTS_ASSERT(!contains(block_addr), "double insert");
    Line *set = setOf(block_addr);

    Line *slot = nullptr;
    for (unsigned w = 0; w < assoc_; ++w) {
        if (!set[w].valid) {
            slot = &set[w];
            break;
        }
    }

    Victim victim;
    if (!slot) {
        // Evict true-LRU way.
        slot = &set[0];
        for (unsigned w = 1; w < assoc_; ++w) {
            if (set[w].lastUse < slot->lastUse)
                slot = &set[w];
        }
        victim.valid = true;
        victim.dirty = slot->dirty;
        victim.blockAddr =
            ((slot->tag << setBits_) |
             ((block_addr >> kBlockShift) & setMask_))
            << kBlockShift;
    }

    slot->valid = true;
    slot->dirty = dirty;
    slot->tag = tagOf(block_addr);
    slot->lastUse = ++useClock_;
    return victim;
}

void
CacheArray::saveState(ckpt::Writer &w) const
{
    w.u64(numSets());
    w.u64(assoc_);
    for (const auto &line : lines_) {
        w.b(line.valid);
        w.b(line.dirty);
        w.u64(line.tag);
        w.u64(line.lastUse);
    }
    w.u64(useClock_);
}

void
CacheArray::loadState(ckpt::Reader &r)
{
    if (r.u64() != numSets() || r.u64() != assoc_)
        throw ckpt::Error("cache array geometry mismatch");
    for (auto &line : lines_) {
        line.valid = r.b();
        line.dirty = r.b();
        line.tag = r.u64();
        line.lastUse = r.u64();
    }
    useClock_ = r.u64();
}

} // namespace mitts

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
    : assoc_(assoc), setShift_(floorLog2(kBlockBytes))
{
    const char *bad = cacheGeometryError(size_bytes, assoc);
    MITTS_ASSERT(!bad, bad);
    const std::size_t num_sets = size_bytes / kBlockBytes / assoc;
    setMask_ = num_sets - 1;
    sets_.assign(num_sets, Set(assoc));
}

std::size_t
CacheArray::setIndex(Addr block_addr) const
{
    return (block_addr >> setShift_) & setMask_;
}

std::uint64_t
CacheArray::tagOf(Addr block_addr) const
{
    return (block_addr >> setShift_) >> floorLog2(setMask_ + 1);
}

CacheArray::Line *
CacheArray::findLine(Addr block_addr)
{
    const std::uint64_t tag = tagOf(block_addr);
    for (auto &line : sets_[setIndex(block_addr)]) {
        if (line.valid && line.tag == tag)
            return &line;
    }
    return nullptr;
}

const CacheArray::Line *
CacheArray::findLine(Addr block_addr) const
{
    return const_cast<CacheArray *>(this)->findLine(block_addr);
}

bool
CacheArray::contains(Addr block_addr) const
{
    return findLine(block_addr) != nullptr;
}

bool
CacheArray::touch(Addr block_addr)
{
    Line *line = findLine(block_addr);
    if (!line)
        return false;
    line->lastUse = ++useClock_;
    return true;
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
    Set &set = sets_[setIndex(block_addr)];

    Line *slot = nullptr;
    for (auto &line : set) {
        if (!line.valid) {
            slot = &line;
            break;
        }
    }

    Victim victim;
    if (!slot) {
        // Evict true-LRU way.
        slot = &set[0];
        for (auto &line : set) {
            if (line.lastUse < slot->lastUse)
                slot = &line;
        }
        victim.valid = true;
        victim.dirty = slot->dirty;
        const std::uint64_t set_bits = floorLog2(setMask_ + 1);
        victim.blockAddr =
            ((slot->tag << set_bits) |
             (setIndex(block_addr) & setMask_))
            << setShift_;
    }

    slot->valid = true;
    slot->dirty = dirty;
    slot->tag = tagOf(block_addr);
    slot->lastUse = ++useClock_;
    return victim;
}

void
CacheArray::invalidate(Addr block_addr)
{
    if (Line *line = findLine(block_addr))
        line->valid = false;
}

void
CacheArray::saveState(ckpt::Writer &w) const
{
    w.u64(sets_.size());
    w.u64(assoc_);
    for (const auto &set : sets_) {
        for (const auto &line : set) {
            w.b(line.valid);
            w.b(line.dirty);
            w.u64(line.tag);
            w.u64(line.lastUse);
        }
    }
    w.u64(useClock_);
}

void
CacheArray::loadState(ckpt::Reader &r)
{
    if (r.u64() != sets_.size() || r.u64() != assoc_)
        throw ckpt::Error("cache array geometry mismatch");
    for (auto &set : sets_) {
        for (auto &line : set) {
            line.valid = r.b();
            line.dirty = r.b();
            line.tag = r.u64();
            line.lastUse = r.u64();
        }
    }
    useClock_ = r.u64();
}

} // namespace mitts

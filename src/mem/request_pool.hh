/**
 * @file
 * Slab arena for MemRequest objects and the reference-counted handle
 * that replaces shared_ptr<MemRequest> on the simulation hot path.
 *
 * The pool hands out ReqPtr handles backed by chunked slab storage:
 * addresses are stable for a request's whole lifetime, freed slots
 * recycle through a LIFO free list, and every slot carries a
 * generation counter so stale RequestId handles are caught by the
 * debug accessors instead of silently aliasing a recycled request.
 * Reference counting is intrusive (a plain u32 in the request; one
 * simulated System is single-threaded), so copying a handle is one
 * increment and the last release is a push onto the free list — no
 * allocator traffic, no control-block cache line.
 *
 * Slot indices are handles only: they must never feed ordering,
 * hashing, or any simulated decision (the checkpoint writer uses them
 * for positional interning, which is order-insensitive by
 * construction).
 */

#ifndef MITTS_MEM_REQUEST_POOL_HH
#define MITTS_MEM_REQUEST_POOL_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "mem/request.hh"

namespace mitts
{

/** Compact generation-checked handle (flat tables, diagnostics). */
struct RequestId
{
    static constexpr std::uint32_t kInvalidSlot = 0xffffffffu;

    std::uint32_t slot = kInvalidSlot;
    std::uint32_t gen = 0;

    bool valid() const { return slot != kInvalidSlot; }

    bool
    operator==(const RequestId &o) const
    {
        return slot == o.slot && gen == o.gen;
    }
    bool operator!=(const RequestId &o) const { return !(*this == o); }
};

class ReqPtr;

/**
 * Chunked slab arena. Chunks are fixed-size arrays so request
 * addresses never move; the free list recycles slots LIFO, which
 * keeps the hot working set of a steady-state run inside a few cache
 * lines' worth of slots.
 */
class RequestPool
{
  public:
    /** Requests per chunk (power of two). */
    static constexpr std::uint32_t kChunkSize = 256;

    RequestPool() = default;
    RequestPool(const RequestPool &) = delete;
    RequestPool &operator=(const RequestPool &) = delete;

    /** Build a demand request (or writeback) — the only way one is
     *  born. The returned handle owns the initial reference. */
    inline ReqPtr make(SeqNum seq, Addr addr, MemOp op, CoreId core,
                       Tick now, int thread = 0);

    /** Blank request for deserialization (fields filled by caller). */
    inline ReqPtr makeBlank();

    /** Generation-checked accessor: asserts the id refers to a
     *  still-live incarnation (MITTS_ASSERT is active in Release). */
    MemRequest &
    at(RequestId id)
    {
        MemRequest *r = slotPtr(id.slot);
        MITTS_ASSERT(r && r->poolRefs_ > 0 && r->poolGen_ == id.gen,
                     "stale or invalid RequestId: slot ", id.slot,
                     " gen ", id.gen);
        return *r;
    }
    const MemRequest &
    at(RequestId id) const
    {
        return const_cast<RequestPool *>(this)->at(id);
    }

    /** Is this incarnation still live? (Non-asserting probe.) */
    bool
    alive(RequestId id) const
    {
        const MemRequest *r =
            const_cast<RequestPool *>(this)->slotPtr(id.slot);
        return r && r->poolRefs_ > 0 && r->poolGen_ == id.gen;
    }

    /** Id of a pooled request. */
    static RequestId
    idOf(const MemRequest &r)
    {
        return RequestId{r.poolSlot_, r.poolGen_};
    }

    /** Slots ever materialized (live + free-listed). */
    std::size_t
    capacity() const
    {
        return chunks_.size() * kChunkSize;
    }
    /** Requests currently alive. */
    std::uint64_t liveCount() const { return live_; }
    /** High-water mark of simultaneously alive requests. */
    std::uint64_t peakLive() const { return peak_; }
    /** Total make() calls (allocation pressure diagnostics). */
    std::uint64_t totalAllocated() const { return allocated_; }

  private:
    friend class ReqPtr;

    MemRequest *
    slotPtr(std::uint32_t slot)
    {
        const std::uint32_t chunk = slot / kChunkSize;
        if (chunk >= chunks_.size())
            return nullptr;
        return &chunks_[chunk][slot % kChunkSize];
    }

    MemRequest *
    allocate()
    {
        MemRequest *r;
        if (!freeList_.empty()) {
            r = slotPtr(freeList_.back());
            freeList_.pop_back();
        } else {
            const auto slot =
                static_cast<std::uint32_t>(capacity());
            chunks_.push_back(
                std::make_unique<MemRequest[]>(kChunkSize));
            for (std::uint32_t i = 0; i < kChunkSize; ++i) {
                MemRequest &s = chunks_.back()[i];
                s.pool_ = this;
                s.poolSlot_ = slot + i;
            }
            // Hand out the first slot; queue the rest (reversed so
            // low slots pop first — purely cosmetic determinism).
            for (std::uint32_t i = kChunkSize; i-- > 1;)
                freeList_.push_back(slot + i);
            r = &chunks_.back()[0];
        }
        r->poolRefs_ = 1;
        ++live_;
        ++allocated_;
        if (live_ > peak_)
            peak_ = live_;
        return r;
    }

    void
    recycle(MemRequest *r)
    {
        ++r->poolGen_;
        --live_;
        freeList_.push_back(r->poolSlot_);
    }

    /** Reset payload fields (metadata survives). */
    static void
    scrub(MemRequest &r)
    {
        r.seq = 0;
        r.addr = kAddrInvalid;
        r.blockAddr = kAddrInvalid;
        r.op = MemOp::Read;
        r.core = kNoCore;
        r.thread = 0;
        r.createdAt = 0;
        r.l1MissAt = 0;
        r.shaperReleaseAt = 0;
        r.llcAt = 0;
        r.mcEnqueueAt = 0;
        r.dramIssueAt = 0;
        r.doneAt = 0;
        r.llcHit = false;
    }

    std::vector<std::unique_ptr<MemRequest[]>> chunks_;
    std::vector<std::uint32_t> freeList_;
    std::uint64_t live_ = 0;
    std::uint64_t peak_ = 0;
    std::uint64_t allocated_ = 0;
};

/**
 * Reference-counted handle to a pooled MemRequest. API mirrors
 * shared_ptr so queue/event/miss-list aliasing reads unchanged; the
 * last handle returns the slot to its pool's free list.
 */
class ReqPtr
{
  public:
    ReqPtr() = default;
    ReqPtr(std::nullptr_t) {} // NOLINT(google-explicit-constructor)

    ReqPtr(const ReqPtr &o) : p_(o.p_)
    {
        if (p_)
            ++p_->poolRefs_;
    }
    ReqPtr(ReqPtr &&o) noexcept : p_(o.p_) { o.p_ = nullptr; }

    ReqPtr &
    operator=(const ReqPtr &o)
    {
        if (o.p_)
            ++o.p_->poolRefs_;
        release();
        p_ = o.p_;
        return *this;
    }
    ReqPtr &
    operator=(ReqPtr &&o) noexcept
    {
        if (this != &o) {
            release();
            p_ = o.p_;
            o.p_ = nullptr;
        }
        return *this;
    }

    ~ReqPtr() { release(); }

    MemRequest *get() const { return p_; }
    MemRequest &operator*() const { return *p_; }
    MemRequest *operator->() const { return p_; }
    explicit operator bool() const { return p_ != nullptr; }

    bool operator==(const ReqPtr &o) const { return p_ == o.p_; }
    bool operator!=(const ReqPtr &o) const { return p_ != o.p_; }
    bool operator==(std::nullptr_t) const { return p_ == nullptr; }
    bool operator!=(std::nullptr_t) const { return p_ != nullptr; }

    /** Compact id of the referenced request (invalid when null). */
    RequestId
    id() const
    {
        return p_ ? RequestPool::idOf(*p_) : RequestId{};
    }

    void
    reset()
    {
        release();
        p_ = nullptr;
    }

  private:
    friend class RequestPool;
    explicit ReqPtr(MemRequest *adopted) : p_(adopted) {}

    void
    release()
    {
        if (p_ && --p_->poolRefs_ == 0)
            p_->pool_->recycle(p_);
    }

    MemRequest *p_ = nullptr;
};

inline ReqPtr
RequestPool::make(SeqNum seq, Addr addr, MemOp op, CoreId core,
                  Tick now, int thread)
{
    MemRequest *r = allocate();
    scrub(*r);
    r->seq = seq;
    r->addr = addr;
    r->blockAddr = addr & ~static_cast<Addr>(kBlockBytes - 1);
    r->op = op;
    r->core = core;
    r->thread = thread;
    r->createdAt = now;
    return ReqPtr(r);
}

inline ReqPtr
RequestPool::makeBlank()
{
    MemRequest *r = allocate();
    scrub(*r);
    return ReqPtr(r);
}

/** Build a demand request (compatibility shim over pool.make). */
inline ReqPtr
makeRequest(RequestPool &pool, SeqNum seq, Addr addr, MemOp op,
            CoreId core, Tick now, int thread = 0)
{
    return pool.make(seq, addr, op, core, now, thread);
}

} // namespace mitts

#endif // MITTS_MEM_REQUEST_POOL_HH

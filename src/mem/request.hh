/**
 * @file
 * The memory request that travels core -> L1 -> (shaper) -> LLC ->
 * memory controller -> DRAM and back. Timestamps at each hop feed the
 * statistics and the MITTS bookkeeping.
 *
 * Requests live in a RequestPool slab arena (mem/request_pool.hh) and
 * are handed around as ReqPtr reference-counted handles; the pool
 * metadata at the tail of the struct belongs to the arena, not the
 * transaction. Nothing outside the pool may construct a MemRequest
 * (detlint R7 enforces this).
 */

#ifndef MITTS_MEM_REQUEST_HH
#define MITTS_MEM_REQUEST_HH

#include <cstdint>

#include "base/types.hh"

namespace mitts
{

class RequestPool;

/** Kind of memory access. */
enum class MemOp
{
    Read,      ///< demand load miss (needs a response)
    Write,     ///< demand store miss (write-allocate fill, responds)
    Writeback, ///< dirty eviction, fire-and-forget
};

/** One cache-block-sized memory transaction. */
struct MemRequest
{
    SeqNum seq = 0;             ///< unique id
    Addr addr = kAddrInvalid;   ///< byte address of the access
    Addr blockAddr = kAddrInvalid; ///< addr & ~(kBlockBytes-1)
    MemOp op = MemOp::Read;
    CoreId core = kNoCore;      ///< issuing core (kNoCore for evictions)
    int thread = 0;             ///< thread within a multithreaded app

    Tick createdAt = 0;      ///< core issued the access
    Tick l1MissAt = 0;       ///< L1 declared a miss
    Tick shaperReleaseAt = 0;///< MITTS/static gate let it pass to LLC
    Tick llcAt = 0;          ///< arrived at the LLC bank
    Tick mcEnqueueAt = 0;    ///< entered the memory controller queue
    Tick dramIssueAt = 0;    ///< DRAM command issued
    Tick doneAt = 0;         ///< data returned (or write retired)

    bool llcHit = false;     ///< filled by the LLC lookup

    /** Demand requests need responses; writebacks do not. */
    bool isDemand() const { return op != MemOp::Writeback; }
    bool isRead() const { return op == MemOp::Read; }
    /** DRAM data-direction: writes and writebacks drive the bus. */
    bool isDramWrite() const { return op != MemOp::Read; }

    // --- RequestPool slab metadata (owned by the arena) -----------
    // Copying is banned (a pooled request's identity is its slot);
    // moves exist only so tests/benches can build free-standing stack
    // requests from helper functions. Pooled requests are never moved
    // — they live and die at their slot address.
    MemRequest() = default;
    MemRequest(const MemRequest &) = delete;
    MemRequest &operator=(const MemRequest &) = delete;
    MemRequest(MemRequest &&) = default;
    MemRequest &operator=(MemRequest &&) = default;

    RequestPool *pool_ = nullptr;   ///< owning arena (set once)
    std::uint32_t poolSlot_ = 0;    ///< stable slot index
    std::uint32_t poolGen_ = 0;     ///< bumped on every recycle
    std::uint32_t poolRefs_ = 0;    ///< live ReqPtr handles
};

} // namespace mitts

#endif // MITTS_MEM_REQUEST_HH

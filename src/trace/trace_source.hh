/**
 * @file
 * Instruction/memory trace abstraction consumed by the core model.
 */

#ifndef MITTS_TRACE_TRACE_SOURCE_HH
#define MITTS_TRACE_TRACE_SOURCE_HH

#include <cstdint>

#include "base/types.hh"
#include "ckpt/serialize.hh"

namespace mitts
{

/** One memory operation preceded by `gap` non-memory instructions. */
struct TraceOp
{
    std::uint32_t gap = 0; ///< non-memory instructions before this op
    bool isWrite = false;
    /** Pointer-chase dependency: this op's address was produced by
     *  the previous load, so it cannot issue until that load
     *  completes. Serializes misses and limits MLP, which is what
     *  makes chase-heavy applications latency-sensitive. */
    bool dependsOnPrev = false;
    Addr addr = 0;
};

/** Stream of trace operations; generators loop forever. */
class TraceSource : public ckpt::Serializable
{
  public:
    virtual ~TraceSource() = default;

    /** Produce the next operation. */
    virtual TraceOp next() = 0;

    /** Restart the stream from the beginning (deterministic). */
    virtual void reset() = 0;

  protected:
    /**
     * Checkpoint the stream cursor. Every source the CLI can build
     * overrides it; exotic test doubles that don't are caught at
     * save time rather than producing a broken image.
     */
    void
    checkpoint(ckpt::Archive &a) override
    {
        (void)a;
        throw ckpt::Error("trace source is not checkpointable");
    }
};

} // namespace mitts

#endif // MITTS_TRACE_TRACE_SOURCE_HH

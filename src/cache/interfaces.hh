/**
 * @file
 * Abstract interfaces stitching the memory hierarchy together.
 */

#ifndef MITTS_CACHE_INTERFACES_HH
#define MITTS_CACHE_INTERFACES_HH

#include "base/types.hh"
#include "mem/request_pool.hh"

namespace mitts
{

/** Upstream consumer of L1 load completions (the core model). */
class L1Client
{
  public:
    virtual ~L1Client() = default;

    /** The load identified by `seq` has its data. */
    virtual void loadComplete(SeqNum seq, Tick now) = 0;
};

/**
 * Source-side traffic gate between the L1 and the LLC — the MITTS
 * shaper, the static bandwidth limiter, MemGuard's budget enforcer, or
 * a pass-through. The L1 asks tryIssue() for the head of its miss
 * queue each cycle; a refusal back-pressures the core.
 */
class SourceGate
{
  public:
    virtual ~SourceGate() = default;

    /**
     * May this L1 miss be sent to the LLC now? Implementations may
     * consume credits as a side effect only when returning true.
     */
    virtual bool tryIssue(MemRequest &req, Tick now) = 0;

    /**
     * LLC hit/miss notification for a previously issued request (the
     * hybrid MITTS placement needs this to reconcile credits).
     */
    virtual void onLlcResponse(const MemRequest &req, bool hit,
                               Tick now)
    {
        (void)req;
        (void)hit;
        (void)now;
    }

    /**
     * Earliest future tick at which a currently refused tryIssue()
     * could succeed, assuming no other simulation activity (the
     * answer is recomputed after every executed cycle). `now` is the
     * cycle just executed. A blocked L1 sleeps until this tick, so
     * every token-based gate answers exactly: its refused calls may
     * only change state that one catch-up at the claimed tick
     * reproduces bit for bit (integer tokens, see
     * base/token_bucket.hh). The default — always next cycle — is the
     * always-safe answer for gates that never block (NullGate) and
     * test doubles.
     */
    virtual Tick
    nextIssueTick(Tick now) const
    {
        return now + 1;
    }

    /**
     * The gated L1 slept through `cycles` refused tryIssue() calls
     * (the simulation fast-forwarded a gate-blocked gap). Account
     * exactly the per-call state the refusals would have produced
     * (stall counters). Shared gates are notified once per blocked
     * L1, matching one refused call per L1 per cycle.
     */
    virtual void
    onSkippedStalls(Tick cycles)
    {
        (void)cycles;
    }
};

/** Gate that never blocks (no shaping). */
class NullGate : public SourceGate
{
  public:
    bool
    tryIssue(MemRequest &req, Tick now) override
    {
        (void)req;
        (void)now;
        return true;
    }
};

/** Downstream sink with bounded capacity (LLC bank, memory ctrl). */
class MemSink
{
  public:
    virtual ~MemSink() = default;

    /** Is there room for one more request right now? */
    virtual bool canAccept(const MemRequest &req) const = 0;

    /** Hand over the request (caller must have checked canAccept). */
    virtual void push(ReqPtr req, Tick now) = 0;
};

} // namespace mitts

#endif // MITTS_CACHE_INTERFACES_HH

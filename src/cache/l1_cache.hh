/**
 * @file
 * Private per-core L1 data cache: write-back, write-allocate, MSHRs,
 * and the attachment point of the MITTS source gate (hybrid placement,
 * paper Fig. 7 right).
 */

#ifndef MITTS_CACHE_L1_CACHE_HH
#define MITTS_CACHE_L1_CACHE_HH

#include <deque>

#include "base/stats.hh"
#include "cache/cache_array.hh"
#include "cache/interfaces.hh"
#include "cache/mshr.hh"
#include "mem/request_pool.hh"
#include "sim/clocked.hh"

namespace mitts
{

/** L1 geometry (paper Table II: 32 KB, 4-way, 64B, 8 MSHRs). */
struct L1Config
{
    std::size_t sizeBytes = 32 * 1024;
    unsigned assoc = 4;
    unsigned mshrs = 8;
    unsigned mshrTargets = 16;
    Tick hitLatency = 2; ///< >= 1: a hit is ready after dispatch
};

/** Outcome of a core access. */
enum class L1Result
{
    Hit,        ///< ready after hitLatency (loads) / instantly
    MissQueued, ///< MSHR allocated or coalesced; load waits for fill
    Blocked,    ///< MSHRs exhausted; core must retry
};

class L1Cache : public Clocked, public ckpt::Serializable
{
  public:
    L1Cache(std::string name, const L1Config &cfg, CoreId core,
            RequestPool &pool);

    /** Wire up the consumer of load completions (the core). */
    void setClient(L1Client *client) { client_ = client; }

    /** Wire up the source gate (MITTS shaper / static limiter). */
    void setGate(SourceGate *gate) { gate_ = gate; }

    /** Wire up the next level (LLC). */
    void setDownstream(MemSink *sink) { downstream_ = sink; }

    /**
     * Core-side access. Stores complete architecturally on acceptance
     * (write buffer); a hit load is ready hitLatency() cycles later,
     * which the core tracks itself (no event, no callback); a missing
     * load completes via L1Client::loadComplete on its fill.
     */
    L1Result access(Addr addr, bool is_write, SeqNum seq, Tick now);

    /** Cycles from an L1-hit load's access to its result. */
    Tick hitLatency() const { return cfg_.hitLatency; }

    /** Outstanding misses (restore-time checks read the waiters). */
    const MshrFile &mshrs() const { return mshrs_; }

    /** Fill response from the LLC for a previously sent miss. */
    void fill(const ReqPtr &req, Tick now);

    /** Replicate `cycles` skipped access() retries the saturated MSHR
     *  file would have rejected (one mshr_blocks count each). Called
     *  by the core's onFastForward while it sleeps in L1Blocked. */
    void onSkippedBlockedAccesses(Tick cycles)
    {
        mshrBlocks_.inc(cycles);
    }

    /** Drain one shaper-gated miss / writeback per cycle. */
    void tick(Tick now) override;
    Tick nextWakeTick(Tick now) const override;
    void onFastForward(Tick from, Tick to) override;

    stats::Group &statsGroup() { return stats_; }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t shaperStallCycles() const
    {
        return shaperStalls_.value();
    }
    CoreId coreId() const { return core_; }

    /** Demand misses waiting for the gate (head blocks the rest). */
    std::size_t pendingSends() const { return sendQueue_.size(); }

  protected:
    /** Checkpoint tags, MSHRs, send/writeback queues and stats. */
    void checkpoint(ckpt::Archive &a) override;

  private:
    void sendWriteback(Addr block_addr, Tick now);

    // detlint-transient(construction-time config; never mutated after build)
    L1Config cfg_;
    // detlint-transient(immutable owning-core id)
    CoreId core_;
    RequestPool &pool_;
    CacheArray array_;
    MshrFile mshrs_;

    L1Client *client_ = nullptr;
    SourceGate *gate_ = nullptr;
    MemSink *downstream_ = nullptr;

    /** Demand misses awaiting gate approval, issued in order. */
    std::deque<ReqPtr> sendQueue_;
    /** Dirty evictions awaiting downstream space (not gated). */
    std::deque<ReqPtr> writebackQueue_;

    SeqNum nextWbSeq_ = 1ULL << 62; ///< distinct id space for evictions

    stats::Group stats_;
    stats::Counter &hits_;
    stats::Counter &misses_;
    stats::Counter &coalesced_;
    stats::Counter &mshrBlocks_;
    stats::Counter &writebacks_;
    stats::Counter &shaperStalls_;
};

} // namespace mitts

#endif // MITTS_CACHE_L1_CACHE_HH

/**
 * @file
 * Trace-driven out-of-order core model.
 *
 * A 4-wide, 128-entry-window core (paper Table II) consuming a
 * TraceSource. Non-memory instructions execute in one cycle; loads
 * occupy their window slot until the memory hierarchy responds, which
 * reproduces the MSHR/window-limited memory-level parallelism that
 * memory scheduling studies depend on. Stores retire into the write
 * buffer on L1 acceptance. Every slot carries the tick it becomes
 * retirable, so an L1 hit is ready hitLatency cycles after dispatch
 * without any event.
 */

#ifndef MITTS_CORE_CORE_HH
#define MITTS_CORE_CORE_HH

#include <algorithm>
#include <vector>

#include "base/stats.hh"
#include "cache/interfaces.hh"
#include "cache/l1_cache.hh"
#include "sim/clocked.hh"
#include "telemetry/probe.hh"
#include "trace/trace_source.hh"

namespace mitts
{

namespace telemetry
{
class Telemetry;
class TraceEventWriter;
} // namespace telemetry

struct CoreConfig
{
    unsigned width = 4;     ///< fetch/retire width
    unsigned windowSize = 128; ///< instruction window entries
    /**
     * Sustained non-memory IPC. A real 4-wide core averages well
     * below its width because of compute dependencies, branches and
     * fetch gaps; modelling that keeps absolute bandwidth demand in
     * a realistic range (a few GB/s for the most intense SPEC apps).
     */
    double nonMemIpc = 1.5;
};

class Core : public Clocked, public L1Client,
             public ckpt::Serializable
{
  public:
    Core(std::string name, CoreId id, const CoreConfig &cfg,
         TraceSource *trace, L1Cache *l1);

    void tick(Tick now) override;
    Tick nextWakeTick(Tick now) const override;
    void onFastForward(Tick from, Tick to) override;

    // L1Client
    void loadComplete(SeqNum seq, Tick now) override;

    /** True iff `seq` names a memory slot in the window that still
     *  waits for its fill (restore-time check of L1 MSHR waiters). */
    bool awaitsFill(SeqNum seq) const;

    CoreId id() const { return id_; }
    std::uint64_t instructions() const { return instructions_.value(); }
    std::uint64_t memStallCycles() const { return memStalls_.value(); }
    std::uint64_t loads() const { return loads_.value(); }
    std::uint64_t stores() const { return stores_.value(); }

    /** Pause execution for `cycles` from `now` (models runtime
     *  software overhead such as the online GA's reconfiguration). */
    void
    stallFor(Tick cycles, Tick now)
    {
        stallUntil_ = std::max(stallUntil_, now) + cycles;
    }

    /**
     * Park / unpark the core (a cloud slot with no resident tenant).
     * A halted core fetches and retires nothing and claims kTickNever
     * so whole-socket idle stretches skip ahead; in-flight load
     * completions still land in the window (loadComplete is a
     * callback) and retire after the next unhalt. Only mutate between
     * executed cycles (the engine acts at window boundaries).
     */
    void setHalted(bool halted) { halted_ = halted; }
    bool halted() const { return halted_; }

    /**
     * Discard the buffered not-yet-dispatched trace op (slot
     * recycling: the trace source underneath was swapped, so the
     * stale op must not leak into the next tenant's stream).
     */
    void
    flushTraceCursor()
    {
        havePendingOp_ = false;
        gapLeft_ = 0;
    }

    stats::Group &statsGroup() { return stats_; }

    /**
     * Register time-series probes (instruction / stall counters,
     * window occupancy) and, when tracing, a track emitting one
     * duration event per contiguous memory-stall episode of the ROB
     * head.
     */
    void registerTelemetry(telemetry::Telemetry &t);

    /** Checkpoint window, trace cursor, stall/idle state and stats.
     *  The open trace-event episode (robStallStart_) is included so a
     *  resumed run emits the identical duration event. */
    void saveState(ckpt::Writer &w) const override;
    void loadState(ckpt::Reader &r) override;

  private:
    /** One window entry. Its seq is implicit: window seqs are
     *  consecutive from windowHeadSeq_. */
    struct WindowSlot
    {
        /** First tick the entry may retire: 0 for non-memory ops and
         *  stores, dispatch + hitLatency for an L1-hit load, and
         *  kTickNever for a miss until loadComplete() sets the fill
         *  tick. */
        Tick readyAt;
        bool isMem;
    };

    /**
     * Why the last executed tick made no forward progress. These
     * states let the core sleep until a load it waits on becomes
     * ready (its slot's readyAt) or an L1 fill event arrives; their
     * per-cycle stall accounting is replicated by onFastForward.
     */
    enum class IdleState
    {
        Active,     ///< progressed, or blocked on per-cycle state
        RobStall,   ///< window full, head is a pending memory op
        ChaseStall, ///< dispatch waits on the chase-chain producer
        L1Blocked,  ///< dispatch retries a mem op the L1 rejected
    };

    unsigned retire(Tick now);
    /** @return dispatched count; sets chase_wait when it broke on an
     *  unresolved pointer-chase dependency, l1_blocked when the L1
     *  rejected the pending memory op (MSHRs saturated). */
    unsigned dispatch(Tick now, bool &chase_wait, bool &l1_blocked);
    /** The chase-chain producer's window entry, or nullptr once it
     *  has retired (or no load was issued yet). */
    const WindowSlot *chaseProducer() const;
    bool prevLoadDone(Tick now) const;

    /** The window entry `k` places behind the head. */
    WindowSlot &
    slot(std::size_t k)
    {
        return window_[(windowHead_ + k) & windowMask_];
    }
    const WindowSlot &
    slot(std::size_t k) const
    {
        return window_[(windowHead_ + k) & windowMask_];
    }

    void
    pushWindow(Tick ready_at, bool is_mem)
    {
        window_[(windowHead_ + windowCount_) & windowMask_] =
            WindowSlot{ready_at, is_mem};
        ++windowCount_;
    }

    // detlint-transient(construction-time config; never mutated after build)
    CoreConfig cfg_;
    // detlint-transient(immutable core id)
    CoreId id_;
    TraceSource *trace_;
    L1Cache *l1_;

    /**
     * Instruction window: a ring of windowSize entries (rounded up to
     * a power of two), allocated once at construction. Holds
     * windowCount_ entries from index windowHead_; the head's seq is
     * windowHeadSeq_ and the tail's is nextSeq_ - 1.
     */
    std::vector<WindowSlot> window_;
    const std::size_t windowMask_; ///< ring size - 1
    std::size_t windowHead_ = 0;
    std::size_t windowCount_ = 0;
    SeqNum windowHeadSeq_ = 1;
    SeqNum nextSeq_ = 1;
    double nonMemBudget_ = 0.0; ///< compute-IPC accumulator
    SeqNum lastLoadSeq_ = 0;  ///< most recent load of any kind
    SeqNum lastChaseSeq_ = 0; ///< most recent chase-chain load
    std::uint64_t memDepStalls_ = 0;

    // Trace cursor: the op being fed in, and its remaining gap.
    TraceOp pendingOp_{};
    bool havePendingOp_ = false;
    std::uint32_t gapLeft_ = 0;

    Tick stallUntil_ = 0;
    bool halted_ = false;
    IdleState idle_ = IdleState::Active; ///< as of the last full tick

    // Telemetry (null/empty unless registerTelemetry was called).
    // detlint-transient(probe wiring re-registered on rebuild, not state)
    telemetry::ProbeOwner probes_;
    telemetry::TraceEventWriter *traceWriter_ = nullptr;
    // detlint-transient(trace-track id re-registered on rebuild)
    int traceTrack_ = 0;
    Tick robStallStart_ = kTickNever; ///< open mem-stall episode

    stats::Group stats_;
    stats::Counter &instructions_;
    stats::Counter &memStalls_;
    stats::Counter &loads_;
    stats::Counter &stores_;
    stats::Counter &l1Blocked_;
};

} // namespace mitts

#endif // MITTS_CORE_CORE_HH

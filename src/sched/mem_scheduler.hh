/**
 * @file
 * Memory-controller scheduling policy interface.
 *
 * The controller presents its transaction queue and the DRAM timing
 * state; the policy picks which ready transaction issues this cycle.
 * Policies that need application information (TCM's MPKI clustering,
 * MISE's slowdown estimation) read it through AppMonitor.
 */

#ifndef MITTS_SCHED_MEM_SCHEDULER_HH
#define MITTS_SCHED_MEM_SCHEDULER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"
#include "ckpt/serialize.hh"
#include "dram/dram.hh"
#include "mem/request_pool.hh"
#include "mem/txn_queue.hh"

namespace mitts
{

/**
 * Read-only view of per-core execution state, provided by the System,
 * used by application-aware schedulers.
 */
class AppMonitor
{
  public:
    virtual ~AppMonitor() = default;

    virtual unsigned numCores() const = 0;

    /** Instructions committed by the core so far. */
    virtual std::uint64_t instructions(CoreId core) const = 0;

    /** Cycles the core spent stalled on memory so far. */
    virtual std::uint64_t memStallCycles(CoreId core) const = 0;
};

/** Scheduling policy plugged into the memory controller. */
class MemScheduler : public ckpt::Serializable
{
  public:

    /** Empty for the built-in policies, which the name registry in
     *  system/config.hh names by SchedulerKind; a decorator wrapping
     *  a policy may report one. */
    virtual std::string name() const { return {}; }

    /**
     * Choose the index of the transaction to issue, or -1 to idle.
     * The queue is a structure-of-arrays view with per-entry DRAM
     * coordinates precomputed at enqueue (mem/txn_queue.hh).
     *
     * Contract, which the controller's issue gate relies on:
     *  - only entries for which dram.canIssue(...) holds may be
     *    chosen;
     *  - a call that returns -1 changes no policy state (bookkeeping
     *    happens only for a chosen entry).
     * Together they make a call with no ready entry a no-op, so the
     * controller skips pick() on cycles where its cached
     * earliest-issue bound shows nothing can issue.
     */
    virtual int pick(const TxnQueue &queue, const Dram &dram,
                     Tick now) = 0;

    /** A transaction entered the controller queue. */
    virtual void onEnqueue(const MemRequest &req, Tick now)
    {
        (void)req;
        (void)now;
    }

    /** A transaction's data burst completed. */
    virtual void onComplete(const MemRequest &req, Tick now)
    {
        (void)req;
        (void)now;
    }

    /** Per-cycle bookkeeping (epochs, quanta). */
    virtual void tick(Tick now) { (void)now; }

    /**
     * Earliest future tick at which tick() does observable work (the
     * skip-ahead quiescence contract; `now` is the cycle just
     * executed). The conservative default keeps the memory controller
     * awake every cycle; policies whose tick() is a no-op should
     * return kTickNever, periodic ones their next deadline.
     */
    virtual Tick
    nextWakeTick(Tick now) const
    {
        return now + 1;
    }

    /** Supply application state for application-aware policies. */
    virtual void setMonitor(const AppMonitor *mon) { monitor_ = mon; }

  protected:
    /**
     * Checkpoint policy-internal state (ranks, epochs, estimators).
     * Every stateful policy must override the empty default.
     */
    void checkpoint(ckpt::Archive &a) override { (void)a; }

    const AppMonitor *monitor_ = nullptr;
};

} // namespace mitts

#endif // MITTS_SCHED_MEM_SCHEDULER_HH

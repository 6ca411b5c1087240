/**
 * @file
 * FR-FCFS (Rixner et al., ISCA 2000) and a ranked generalization.
 *
 * RankedFrfcfs picks the ready transaction whose core has the highest
 * rank; within a rank it prefers row hits, then age. Plain FR-FCFS is
 * the degenerate single-rank case. TCM and MISE derive from this by
 * supplying rank functions; a transient "boost" core (used by slowdown
 * measurement) outranks everything.
 */

#ifndef MITTS_SCHED_FRFCFS_HH
#define MITTS_SCHED_FRFCFS_HH

#include <vector>

#include "sched/mem_scheduler.hh"

namespace mitts
{

class RankedFrfcfs : public MemScheduler
{
  public:
    int pick(const TxnQueue &queue, const Dram &dram,
             Tick now) override;

    /**
     * Temporarily give one core absolute priority (kNoCore to clear).
     * Used by MISE-style slowdown measurement epochs.
     */
    void setBoostedCore(CoreId core) { boosted_ = core; }
    CoreId boostedCore() const { return boosted_; }

  protected:
    void
    checkpoint(ckpt::Archive &a) override
    {
        a.narrow(boosted_, "boosted core");
    }

    /**
     * Rank of a core; higher wins. Default 0 for everyone, which
     * reduces the policy to plain FR-FCFS.
     */
    virtual int
    rankOf(CoreId core) const
    {
        (void)core;
        return 0;
    }

  private:
    CoreId boosted_ = kNoCore;
};

/** Plain FR-FCFS under its canonical name. */
class FrfcfsScheduler : public RankedFrfcfs
{
  public:
    /** Stateless across cycles (tick is a no-op): never needs one. */
    Tick
    nextWakeTick(Tick now) const override
    {
        (void)now;
        return kTickNever;
    }
};

} // namespace mitts

#endif // MITTS_SCHED_FRFCFS_HH

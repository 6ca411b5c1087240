/**
 * @file
 * Fair Queueing memory scheduler (Nesbit et al., MICRO 2006).
 *
 * Each core owns a virtual clock; a serviced transaction advances it
 * by the service cost divided by the core's share. The scheduler
 * issues the ready transaction with the earliest virtual finish time,
 * giving each core its allocated fraction of memory system bandwidth
 * regardless of the load others present.
 */

#ifndef MITTS_SCHED_FAIR_QUEUE_HH
#define MITTS_SCHED_FAIR_QUEUE_HH

#include <vector>

#include "sched/mem_scheduler.hh"

namespace mitts
{

class FairQueueScheduler : public MemScheduler
{
  public:
    /**
     * @param num_cores  cores sharing the channel
     * @param shares     per-core share weights (empty = equal)
     */
    explicit FairQueueScheduler(unsigned num_cores,
                                std::vector<double> shares = {});

    /** Virtual-time bookkeeping happens inside pick(); tick no-op. */
    Tick
    nextWakeTick(Tick now) const override
    {
        (void)now;
        return kTickNever;
    }

    int pick(const TxnQueue &queue, const Dram &dram,
             Tick now) override;

  protected:
    void checkpoint(ckpt::Archive &a) override;

  private:
    double virtualFinishOf(CoreId core, Tick now,
                           double service_cost) const;

    // fixed at construction; restore validates counts against it
    unsigned numCores_;
    // detlint-transient(per-core weights fixed at construction)
    std::vector<double> shares_;
    std::vector<double> virtualClock_;
    double systemVt_ = 0.0; ///< system virtual time (start tags)
};

} // namespace mitts

#endif // MITTS_SCHED_FAIR_QUEUE_HH

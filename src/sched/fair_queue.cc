#include "sched/fair_queue.hh"

#include "base/logging.hh"

namespace mitts
{

FairQueueScheduler::FairQueueScheduler(unsigned num_cores,
                                       std::vector<double> shares)
    : numCores_(num_cores), shares_(std::move(shares)),
      virtualClock_(num_cores, 0.0)
{
    if (shares_.empty())
        shares_.assign(num_cores, 1.0 / num_cores);
    MITTS_ASSERT(shares_.size() == num_cores, "share vector size");
}

double
FairQueueScheduler::virtualFinishOf(CoreId core, Tick now,
                                    double service_cost) const
{
    // Start tag: the core's own clock, but never before the system
    // virtual time (so long-idle cores cannot bank unbounded credit).
    (void)now;
    const double start = std::max(virtualClock_[core], systemVt_);
    return start + service_cost / shares_[core];
}

int
FairQueueScheduler::pick(const TxnQueue &queue, const Dram &dram,
                         Tick now)
{
    // Service cost approximated by the burst time; a row miss costs
    // more but charging uniformly matches Nesbit's idealized server.
    const double cost = static_cast<double>(dram.config().tBURST);

    int best = -1;
    double best_vft = 0.0;
    Tick best_arrival = kTickNever;
    int best_wb = -1;
    Tick best_wb_arrival = kTickNever;

    for (std::size_t i = 0; i < queue.size(); ++i) {
        if (!dram.canIssue(queue.coord(i), queue.isWrite(i), now))
            continue;
        const CoreId req_core = queue.core(i);
        if (req_core == kNoCore) {
            // Writebacks are background traffic: issue only when no
            // demand transaction is ready.
            if (queue.enqueueAt(i) < best_wb_arrival) {
                best_wb = static_cast<int>(i);
                best_wb_arrival = queue.enqueueAt(i);
            }
            continue;
        }
        const double vft = virtualFinishOf(req_core, now, cost);
        if (best == -1 || vft < best_vft ||
            (vft == best_vft && queue.enqueueAt(i) < best_arrival)) {
            best = static_cast<int>(i);
            best_vft = vft;
            best_arrival = queue.enqueueAt(i);
        }
    }

    if (best >= 0) {
        const CoreId core = queue.core(best);
        // System virtual time advances to the start tag of the packet
        // being serviced (start-time fair queueing).
        systemVt_ = std::max(systemVt_, virtualClock_[core]);
        virtualClock_[core] = best_vft;
        return best;
    }
    return best_wb;
}

void
FairQueueScheduler::checkpoint(ckpt::Archive &a)
{
    a.vecF64(virtualClock_);
    a.check(virtualClock_.size() == numCores_,
            "fair-queue core count mismatch");
    a.f64(systemVt_);
}

} // namespace mitts

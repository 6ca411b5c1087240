#include "sched/mise.hh"

#include <algorithm>
#include <numeric>

namespace mitts
{

MiseScheduler::MiseScheduler(unsigned num_cores, const MiseConfig &cfg)
    : numCores_(num_cores), cfg_(cfg), ranks_(num_cores, 0),
      nextIntervalAt_(cfg.intervalLength)
{
    SlowdownEstimatorConfig ecfg;
    ecfg.epochLength = cfg.epochLength;
    ecfg.alpha = cfg.alpha;
    est_ = std::make_unique<SlowdownEstimator>(num_cores, ecfg);
    est_->attach(this, nullptr);
}

void
MiseScheduler::setMonitor(const AppMonitor *mon)
{
    MemScheduler::setMonitor(mon);
    est_->attach(this, mon);
}

void
MiseScheduler::onComplete(const MemRequest &req, Tick now)
{
    (void)now;
    if (req.isDemand())
        est_->onComplete(req.core);
}

void
MiseScheduler::tick(Tick now)
{
    est_->tick(now);
    if (now >= nextIntervalAt_) {
        reprioritize();
        nextIntervalAt_ += cfg_.intervalLength;
    }
}

Tick
MiseScheduler::nextWakeTick(Tick now) const
{
    return std::max(std::min(est_->nextEpochTick(), nextIntervalAt_),
                    now + 1);
}

void
MiseScheduler::reprioritize()
{
    // Highest slowdown -> highest rank. stable_sort: equal
    // slowdowns tie-break by core id on every standard library.
    std::vector<unsigned> order(numCores_);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](unsigned a, unsigned b) {
                         return est_->slowdown(a) > est_->slowdown(b);
                     });
    for (unsigned i = 0; i < numCores_; ++i)
        ranks_[order[i]] = static_cast<int>(numCores_ - i);
}

void
MiseScheduler::saveState(ckpt::Writer &w) const
{
    RankedFrfcfs::saveState(w);
    est_->saveState(w);
    w.u64(ranks_.size());
    for (int v : ranks_)
        w.i64(v);
    w.u64(nextIntervalAt_);
}

void
MiseScheduler::loadState(ckpt::Reader &r)
{
    RankedFrfcfs::loadState(r);
    est_->loadState(r);
    if (r.u64() != numCores_)
        throw ckpt::Error("mise core count mismatch");
    for (auto &v : ranks_)
        v = static_cast<int>(r.i64());
    nextIntervalAt_ = r.u64();
}

} // namespace mitts

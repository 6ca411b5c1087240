#include "sched/atlas.hh"

#include <algorithm>
#include <numeric>

namespace mitts
{

AtlasScheduler::AtlasScheduler(unsigned num_cores,
                               const AtlasConfig &cfg)
    : numCores_(num_cores), cfg_(cfg),
      quantumService_(num_cores, 0.0), totalService_(num_cores, 0.0),
      ranks_(num_cores, 0), nextQuantumAt_(cfg.quantum)
{
}

void
AtlasScheduler::onComplete(const MemRequest &req, Tick now)
{
    (void)now;
    if (req.core >= 0 &&
        static_cast<unsigned>(req.core) < numCores_) {
        // Service charged as the DRAM occupancy of the transaction.
        quantumService_[req.core] +=
            static_cast<double>(req.doneAt - req.dramIssueAt);
    }
}

void
AtlasScheduler::tick(Tick now)
{
    if (now >= nextQuantumAt_) {
        requantize();
        nextQuantumAt_ += cfg_.quantum;
    }
}

Tick
AtlasScheduler::nextWakeTick(Tick now) const
{
    return std::max(nextQuantumAt_, now + 1);
}

void
AtlasScheduler::requantize()
{
    for (unsigned c = 0; c < numCores_; ++c) {
        totalService_[c] = cfg_.alpha * totalService_[c] +
                           (1.0 - cfg_.alpha) * quantumService_[c];
        quantumService_[c] = 0.0;
    }
    // Least attained service -> highest rank. stable_sort: equal
    // service (e.g. the all-zero first quantum) must tie-break by
    // core id on every standard library, not by whatever permutation
    // an unstable sort leaves.
    std::vector<unsigned> order(numCores_);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](unsigned a, unsigned b) {
                         return totalService_[a] < totalService_[b];
                     });
    for (unsigned i = 0; i < numCores_; ++i)
        ranks_[order[i]] = static_cast<int>(numCores_ - i);
}

int
AtlasScheduler::pick(const TxnQueue &queue, const Dram &dram,
                     Tick now)
{
    // Starvation guard: the oldest over-threshold request wins.
    int oldest = -1;
    Tick oldest_at = kTickNever;
    for (std::size_t i = 0; i < queue.size(); ++i) {
        if (!dram.canIssue(queue.coord(i), queue.isWrite(i), now))
            continue;
        if (now - queue.enqueueAt(i) >= cfg_.starvationThreshold &&
            queue.enqueueAt(i) < oldest_at) {
            oldest = static_cast<int>(i);
            oldest_at = queue.enqueueAt(i);
        }
    }
    if (oldest >= 0)
        return oldest;
    return RankedFrfcfs::pick(queue, dram, now);
}

void
AtlasScheduler::saveState(ckpt::Writer &w) const
{
    RankedFrfcfs::saveState(w);
    w.vecF64(quantumService_);
    w.vecF64(totalService_);
    w.u64(ranks_.size());
    for (int v : ranks_)
        w.i64(v);
    w.u64(nextQuantumAt_);
}

void
AtlasScheduler::loadState(ckpt::Reader &r)
{
    RankedFrfcfs::loadState(r);
    quantumService_ = r.vecF64();
    totalService_ = r.vecF64();
    const std::uint64_t n = r.u64();
    if (quantumService_.size() != numCores_ ||
        totalService_.size() != numCores_ || n != numCores_)
        throw ckpt::Error("atlas core count mismatch");
    for (auto &v : ranks_)
        v = static_cast<int>(r.i64());
    nextQuantumAt_ = r.u64();
}

} // namespace mitts

#include "sched/tcm.hh"

#include <algorithm>
#include <numeric>

namespace mitts
{

TcmScheduler::TcmScheduler(unsigned num_cores, const TcmConfig &cfg)
    : numCores_(num_cores), cfg_(cfg), rng_(cfg.seed),
      quantumRequests_(num_cores, 0), lastInstr_(num_cores, 0),
      inLatencyCluster_(num_cores, true), ranks_(num_cores, 0),
      nextQuantumAt_(cfg.quantum), nextShuffleAt_(cfg.shuffleInterval)
{
    if (cfg_.clusterThresh <= 0.0)
        cfg_.clusterThresh = 2.0 / static_cast<double>(num_cores);
    // Before the first quantum there is no MPKI information: equal
    // ranks reduce the policy to plain FR-FCFS (no starvation).
}

void
TcmScheduler::onEnqueue(const MemRequest &req, Tick now)
{
    (void)now;
    if (req.core >= 0 && req.isDemand())
        ++quantumRequests_[req.core];
}

void
TcmScheduler::tick(Tick now)
{
    if (now >= nextQuantumAt_) {
        recluster(now);
        nextQuantumAt_ += cfg_.quantum;
    }
    if (now >= nextShuffleAt_) {
        shuffle();
        nextShuffleAt_ += cfg_.shuffleInterval;
    }
}

Tick
TcmScheduler::nextWakeTick(Tick now) const
{
    return std::max(std::min(nextQuantumAt_, nextShuffleAt_), now + 1);
}

void
TcmScheduler::recluster(Tick now)
{
    (void)now;
    // MPKI per core over the quantum; without an AppMonitor fall back
    // to raw request counts (equivalent ordering when IPCs are close).
    std::vector<double> mpki(numCores_, 0.0);
    for (unsigned c = 0; c < numCores_; ++c) {
        double instr = 1000.0; // fallback: requests per "kilo-unit"
        if (monitor_) {
            const std::uint64_t total = monitor_->instructions(c);
            instr = static_cast<double>(total - lastInstr_[c]);
            lastInstr_[c] = total;
            if (instr < 1.0)
                instr = 1.0;
        }
        mpki[c] = 1000.0 * static_cast<double>(quantumRequests_[c]) /
                  instr;
    }

    const double total_bw = std::max<double>(
        1.0, std::accumulate(quantumRequests_.begin(),
                             quantumRequests_.end(), 0.0));

    // stable_sort: equal-MPKI cores tie-break by core id on every
    // standard library (the cluster cut depends on this order).
    std::vector<unsigned> order(numCores_);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](unsigned a, unsigned b) {
                         return mpki[a] < mpki[b];
                     });

    // Fill the latency cluster with the least intense cores until its
    // bandwidth share would exceed ClusterThresh.
    double used = 0.0;
    std::fill(inLatencyCluster_.begin(), inLatencyCluster_.end(),
              false);
    for (unsigned idx : order) {
        const double share =
            static_cast<double>(quantumRequests_[idx]) / total_bw;
        if (used + share > cfg_.clusterThresh)
            break;
        used += share;
        inLatencyCluster_[idx] = true;
    }

    // Ranks: latency cluster above bandwidth cluster; within latency,
    // lower MPKI ranks higher; bandwidth cluster starts arbitrary and
    // gets shuffled.
    int next_rank = static_cast<int>(numCores_);
    for (unsigned idx : order) {
        if (inLatencyCluster_[idx])
            ranks_[idx] = next_rank-- + static_cast<int>(numCores_);
    }
    for (unsigned idx : order) {
        if (!inLatencyCluster_[idx])
            ranks_[idx] = next_rank--;
    }

    std::fill(quantumRequests_.begin(), quantumRequests_.end(), 0);
}

void
TcmScheduler::shuffle()
{
    // Permute the ranks of the bandwidth-sensitive cores
    // (insertion-shuffle approximation of TCM's niceness schedule).
    std::vector<unsigned> bw_cores;
    std::vector<int> bw_ranks;
    for (unsigned c = 0; c < numCores_; ++c) {
        if (!inLatencyCluster_[c]) {
            bw_cores.push_back(c);
            bw_ranks.push_back(ranks_[c]);
        }
    }
    // Fisher-Yates with the scheduler's own deterministic stream.
    for (std::size_t i = bw_ranks.size(); i > 1; --i)
        std::swap(bw_ranks[i - 1], bw_ranks[rng_.below(i)]);
    for (std::size_t i = 0; i < bw_cores.size(); ++i)
        ranks_[bw_cores[i]] = bw_ranks[i];
}

void
TcmScheduler::checkpoint(ckpt::Archive &a)
{
    RankedFrfcfs::checkpoint(a);
    a.rng(rng_);
    a.vecU64(quantumRequests_);
    a.vecU64(lastInstr_);
    a.vecBool(inLatencyCluster_);
    std::uint64_t n = ranks_.size();
    a.u64(n);
    a.check(quantumRequests_.size() == numCores_ &&
                lastInstr_.size() == numCores_ &&
                inLatencyCluster_.size() == numCores_ && n == numCores_,
            "tcm core count mismatch");
    for (int &v : ranks_)
        a.narrow(v, "tcm rank");
    a.u64(nextQuantumAt_);
    a.u64(nextShuffleAt_);
}

} // namespace mitts

/**
 * @file
 * Thread Cluster Memory scheduling (Kim et al., MICRO 2010).
 *
 * Every quantum, cores are split into a latency-sensitive cluster (low
 * MPKI, total bandwidth share below ClusterThresh) and a
 * bandwidth-sensitive cluster. Latency-sensitive cores always outrank
 * bandwidth-sensitive ones; within the bandwidth cluster the ranking
 * is shuffled periodically to spread the pain.
 */

#ifndef MITTS_SCHED_TCM_HH
#define MITTS_SCHED_TCM_HH

#include <vector>

#include "base/random.hh"
#include "sched/frfcfs.hh"

namespace mitts
{

struct TcmConfig
{
    /** Fraction of bandwidth the latency cluster may consume; the
     *  paper (and MITTS) use 2/N. 0 means "use 2/numCores". */
    double clusterThresh = 0.0;
    /** Re-clustering period. TCM publishes 1M cycles; scaled to
     *  this repo's run lengths (DESIGN.md "Run-length scaling"). */
    Tick quantum = 50'000;
    Tick shuffleInterval = 800;///< bandwidth-cluster rank shuffle
    std::uint64_t seed = 1;
};

class TcmScheduler : public RankedFrfcfs
{
  public:
    TcmScheduler(unsigned num_cores, const TcmConfig &cfg);

    void tick(Tick now) override;
    /** Wakes for the next re-clustering or rank shuffle. */
    Tick nextWakeTick(Tick now) const override;
    void onEnqueue(const MemRequest &req, Tick now) override;

    /** Cores currently in the latency-sensitive cluster (testing). */
    const std::vector<bool> &latencyCluster() const
    {
        return inLatencyCluster_;
    }

  protected:
    void checkpoint(ckpt::Archive &a) override;
    int
    rankOf(CoreId core) const override
    {
        return ranks_[core];
    }

  private:
    void recluster(Tick now);
    void shuffle();

    // fixed at construction; restore validates counts against it
    unsigned numCores_;
    // detlint-transient(construction-time config; never mutated after build)
    TcmConfig cfg_;
    Random rng_;

    std::vector<std::uint64_t> quantumRequests_; ///< per-core arrivals
    std::vector<std::uint64_t> lastInstr_;       ///< per-core snapshot
    std::vector<bool> inLatencyCluster_;
    std::vector<int> ranks_;
    Tick nextQuantumAt_;
    Tick nextShuffleAt_;
};

} // namespace mitts

#endif // MITTS_SCHED_TCM_HH

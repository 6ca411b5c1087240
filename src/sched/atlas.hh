/**
 * @file
 * ATLAS memory scheduling (Kim et al., HPCA 2010), best-effort
 * reimplementation — cited by the paper as prior application-aware
 * scheduling ([9]).
 *
 * Cores are ranked by Least Attained Service: at each long quantum
 * boundary, per-core attained service (DRAM service cycles, decayed
 * geometrically across quanta) is recomputed and the core with the
 * least total attained service gets the highest priority, which
 * favours light, latency-sensitive applications.
 */

#ifndef MITTS_SCHED_ATLAS_HH
#define MITTS_SCHED_ATLAS_HH

#include <vector>

#include "sched/frfcfs.hh"

namespace mitts
{

struct AtlasConfig
{
    Tick quantum = 1'000'000; ///< ranking period (paper: 10M cycles)
    double alpha = 0.875;     ///< history decay across quanta
    /** Requests older than this are prioritized regardless of rank
     *  (ATLAS's starvation threshold). */
    Tick starvationThreshold = 100'000;
};

class AtlasScheduler : public RankedFrfcfs
{
  public:
    AtlasScheduler(unsigned num_cores, const AtlasConfig &cfg);

    int pick(const TxnQueue &queue, const Dram &dram,
             Tick now) override;
    void tick(Tick now) override;
    /** Wakes for the next quantum boundary. */
    Tick nextWakeTick(Tick now) const override;
    void onComplete(const MemRequest &req, Tick now) override;

    /** Attained service totals (testing). */
    double attainedService(CoreId core) const
    {
        return totalService_[core];
    }

    void saveState(ckpt::Writer &w) const override;
    void loadState(ckpt::Reader &r) override;

  protected:
    int rankOf(CoreId core) const override { return ranks_[core]; }

  private:
    void requantize();

    // detlint-transient(fixed at construction; load validates counts against it)
    unsigned numCores_;
    // detlint-transient(construction-time config; never mutated after build)
    AtlasConfig cfg_;
    std::vector<double> quantumService_; ///< this quantum's service
    std::vector<double> totalService_;   ///< decayed history
    std::vector<int> ranks_;
    Tick nextQuantumAt_;
};

} // namespace mitts

#endif // MITTS_SCHED_ATLAS_HH

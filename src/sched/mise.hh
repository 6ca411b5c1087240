/**
 * @file
 * MISE scheduler (Subramanian et al., HPCA 2013), fairness mode.
 *
 * Uses the shared SlowdownEstimator to track per-application slowdown
 * and, every interval, ranks cores so the most slowed-down application
 * gets the highest memory priority, driving slowdowns toward equality.
 */

#ifndef MITTS_SCHED_MISE_HH
#define MITTS_SCHED_MISE_HH

#include <memory>
#include <vector>

#include "sched/frfcfs.hh"
#include "sched/slowdown_estimator.hh"

namespace mitts
{

struct MiseConfig
{
    /** Measurement epoch and re-prioritization interval. MISE
     *  publishes 10k / 5M cycles; scaled to this repo's run lengths
     *  (DESIGN.md "Run-length scaling"). */
    Tick epochLength = 5'000;
    Tick intervalLength = 50'000;
    double alpha = 0.5;
};

class MiseScheduler : public RankedFrfcfs
{
  public:
    MiseScheduler(unsigned num_cores, const MiseConfig &cfg);

    void tick(Tick now) override;
    /** Wakes for the estimator's epoch ends and re-prioritizations. */
    Tick nextWakeTick(Tick now) const override;
    void onComplete(const MemRequest &req, Tick now) override;
    void setMonitor(const AppMonitor *mon) override;

    const SlowdownEstimator &estimator() const { return *est_; }

  protected:
    void checkpoint(ckpt::Archive &a) override;
    int rankOf(CoreId core) const override { return ranks_[core]; }

  private:
    void reprioritize();

    // detlint-transient(fixed at construction; load validates counts against it)
    unsigned numCores_;
    // detlint-transient(construction-time config; never mutated after build)
    MiseConfig cfg_;
    std::unique_ptr<SlowdownEstimator> est_;
    std::vector<int> ranks_;
    Tick nextIntervalAt_;
};

} // namespace mitts

#endif // MITTS_SCHED_MISE_HH

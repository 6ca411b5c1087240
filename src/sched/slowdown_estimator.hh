/**
 * @file
 * MISE-style online slowdown estimation (Subramanian et al., HPCA'13).
 *
 * Periodically each core gets one epoch of highest priority at the
 * memory controller; its request service rate during those epochs
 * approximates its alone-run rate. Slowdown is then
 *
 *     slowdown = (1 - alpha) * (rate_alone / rate_shared)
 *              + alpha * (mem stall cycles / total cycles)
 *
 * blending the service-rate ratio with the measured stall fraction,
 * as the MITTS paper's online genetic algorithm does (Sec. IV-B).
 * The estimator is shared by the MISE scheduler and the FST
 * throttler. The online GA runtime does not use it: it makes its own
 * MISE-style measurement in its Measure state (tuner/online_tuner.hh).
 */

#ifndef MITTS_SCHED_SLOWDOWN_ESTIMATOR_HH
#define MITTS_SCHED_SLOWDOWN_ESTIMATOR_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "sched/frfcfs.hh"
#include "sched/mem_scheduler.hh"

namespace mitts
{

struct SlowdownEstimatorConfig
{
    Tick epochLength = 10'000; ///< MISE paper value
    double alpha = 0.5;        ///< stall-fraction blend weight
    double ewma = 0.5;         ///< smoothing across epochs
};

class SlowdownEstimator
{
  public:
    SlowdownEstimator(unsigned num_cores,
                      const SlowdownEstimatorConfig &cfg);

    /** The scheduler whose boost knob measurement epochs drive. */
    void attach(RankedFrfcfs *sched, const AppMonitor *mon)
    {
        sched_ = sched;
        monitor_ = mon;
    }

    /** Count a serviced demand request of `core`. */
    void onComplete(CoreId core);

    /** Advance epochs; call once per cycle. */
    void tick(Tick now);

    /** Cycle at which tick() closes the current epoch. */
    Tick nextEpochTick() const { return epochStart_ + cfg_.epochLength; }

    /** Current slowdown estimate (>= 1.0). */
    double slowdown(CoreId core) const { return slowdown_[core]; }

    /** Estimated alone service rate (requests/cycle). */
    double aloneRate(CoreId core) const { return aloneRate_[core]; }
    double sharedRate(CoreId core) const { return sharedRate_[core]; }

    unsigned numCores() const { return numCores_; }

    /** Checkpoint epoch bookkeeping and rate estimates. */
    void
    checkpoint(ckpt::Archive &a)
    {
        a.narrow(measuredCore_, "estimator measured core");
        a.u64(epochStart_);
        a.vecU64(epochServiced_);
        a.vecU64(lastStall_);
        a.vecF64(aloneRate_);
        a.vecF64(sharedRate_);
        a.vecF64(slowdown_);
        a.check(epochServiced_.size() == numCores_ &&
                    lastStall_.size() == numCores_ &&
                    aloneRate_.size() == numCores_ &&
                    sharedRate_.size() == numCores_ &&
                    slowdown_.size() == numCores_,
                "slowdown estimator core count mismatch");
    }

  private:
    void closeEpoch(Tick now);

    // fixed at construction; restore validates counts against it
    unsigned numCores_;
    // detlint-transient(construction-time config; never mutated after build)
    SlowdownEstimatorConfig cfg_;
    RankedFrfcfs *sched_ = nullptr;
    const AppMonitor *monitor_ = nullptr;

    CoreId measuredCore_ = 0;   ///< core boosted this epoch
    Tick epochStart_ = 0;
    std::vector<std::uint64_t> epochServiced_;
    std::vector<std::uint64_t> lastStall_;

    std::vector<double> aloneRate_;
    std::vector<double> sharedRate_;
    std::vector<double> slowdown_;
};

} // namespace mitts

#endif // MITTS_SCHED_SLOWDOWN_ESTIMATOR_HH

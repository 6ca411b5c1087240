/**
 * @file
 * Fairness via Source Throttling (Ebrahimi et al., ASPLOS 2010),
 * best-effort reimplementation.
 *
 * A central controller estimates per-application slowdown (using the
 * same MISE-style estimator the paper's framework relies on) and, at
 * each interval, when unfairness = max/min slowdown exceeds a
 * threshold, throttles down the least slowed-down application's
 * memory injection rate and unthrottles the most slowed-down one.
 * Throttling acts at the source through per-core token-bucket gates
 * (exact integer tokens, base/token_bucket.hh), over a plain FR-FCFS
 * memory controller.
 */

#ifndef MITTS_SCHED_FST_HH
#define MITTS_SCHED_FST_HH

#include <memory>
#include <vector>

#include "base/token_bucket.hh"
#include "cache/interfaces.hh"
#include "sched/frfcfs.hh"
#include "sched/slowdown_estimator.hh"

namespace mitts
{

struct FstConfig
{
    /** Fairness evaluation interval; it and `epochLength` are scaled
     *  to this repo's run lengths (DESIGN.md "Run-length scaling"). */
    Tick interval = 25'000;
    double unfairnessThresh = 1.4;
    double maxRate = 1.0 / 14.0; ///< peak injections/cycle (1/tBURST)
    double burstCap = 4.0;       ///< token bucket depth
    Tick epochLength = 5'000;    ///< estimator epoch
};

class FstScheduler;

/** Per-core injection throttle driven by the FST controller. */
class FstGate : public SourceGate
{
  public:
    FstGate(FstScheduler &owner, CoreId core);

    bool tryIssue(MemRequest &req, Tick now) override;
    Tick nextIssueTick(Tick now) const override;

    void
    checkpoint(ckpt::Archive &a)
    {
        a.u64(bucket_.level);
        a.u64(bucket_.last);
    }

  private:
    FstScheduler &owner_;
    // detlint-transient(immutable owning-core id)
    CoreId core_;
    TokenBucket bucket_;
};

/**
 * FR-FCFS service order plus the FST fairness control loop. Owns the
 * per-core gates that the system installs between L1 and LLC.
 */
class FstScheduler : public RankedFrfcfs
{
  public:
    FstScheduler(unsigned num_cores, const FstConfig &cfg);

    void tick(Tick now) override;
    /** Wakes for the estimator's epoch ends and fairness checks. */
    Tick nextWakeTick(Tick now) const override;
    void onComplete(const MemRequest &req, Tick now) override;
    void setMonitor(const AppMonitor *mon) override;

    /** Gate to install for `core`. */
    SourceGate *gate(CoreId core) { return gates_[core].get(); }

    /** Current throttle fraction of peak injection rate. */
    double throttleLevel(CoreId core) const { return levels_[core]; }
    const FstConfig &config() const { return cfg_; }

    /** Gate token units per injection. */
    static constexpr std::uint64_t kTokenUnits = 1ULL << 32;
    /** `core`'s gate refill rate, token units per cycle. */
    std::uint64_t tokenRate(CoreId core) const;
    /** Gate bucket depth in token units. */
    std::uint64_t tokenCap() const;

  protected:
    void checkpoint(ckpt::Archive &a) override;

  private:
    void adjust();

    // fixed at construction; restore validates counts against it
    unsigned numCores_;
    // detlint-transient(construction-time config; never mutated after build)
    FstConfig cfg_;
    std::unique_ptr<SlowdownEstimator> est_;
    std::vector<double> levels_;
    std::vector<std::unique_ptr<FstGate>> gates_;
    Tick nextAdjustAt_;

    /** Discrete throttle levels from the FST paper. */
    static constexpr double kLevels[] = {1.0,  0.5,  0.25, 0.10,
                                         0.05, 0.04, 0.03, 0.02};
    std::vector<int> levelIdx_;
};

} // namespace mitts

#endif // MITTS_SCHED_FST_HH

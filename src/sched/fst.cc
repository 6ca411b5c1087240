#include "sched/fst.hh"

#include <algorithm>
#include <cmath>

namespace mitts
{

constexpr double FstScheduler::kLevels[];

FstGate::FstGate(FstScheduler &owner, CoreId core)
    : owner_(owner), core_(core)
{
    bucket_.level = FstScheduler::kTokenUnits; // one token to start
}

bool
FstGate::tryIssue(MemRequest &req, Tick now)
{
    (void)req;
    // Refill at the current rate. adjust() changes it only on an
    // executed cycle, in the memory controller's tick, after an L1
    // blocked here has refilled at the old rate in the same cycle.
    bucket_.refill(now, owner_.tokenRate(core_), owner_.tokenCap());
    return bucket_.take(FstScheduler::kTokenUnits);
}

Tick
FstGate::nextIssueTick(Tick now) const
{
    return std::max(bucket_.readyTick(owner_.tokenRate(core_),
                                      owner_.tokenCap(),
                                      FstScheduler::kTokenUnits),
                    now + 1);
}

std::uint64_t
FstScheduler::tokenRate(CoreId core) const
{
    return static_cast<std::uint64_t>(
        std::llround(levels_[core] * cfg_.maxRate *
                     static_cast<double>(kTokenUnits)));
}

std::uint64_t
FstScheduler::tokenCap() const
{
    return static_cast<std::uint64_t>(std::llround(
        cfg_.burstCap * static_cast<double>(kTokenUnits)));
}

FstScheduler::FstScheduler(unsigned num_cores, const FstConfig &cfg)
    : numCores_(num_cores), cfg_(cfg), levels_(num_cores, 1.0),
      nextAdjustAt_(cfg.interval), levelIdx_(num_cores, 0)
{
    SlowdownEstimatorConfig ecfg;
    ecfg.epochLength = cfg.epochLength;
    est_ = std::make_unique<SlowdownEstimator>(num_cores, ecfg);
    est_->attach(this, nullptr);
    for (unsigned c = 0; c < num_cores; ++c) {
        gates_.push_back(std::make_unique<FstGate>(
            *this, static_cast<CoreId>(c)));
    }
}

void
FstScheduler::setMonitor(const AppMonitor *mon)
{
    MemScheduler::setMonitor(mon);
    est_->attach(this, mon);
}

void
FstScheduler::onComplete(const MemRequest &req, Tick now)
{
    (void)now;
    if (req.isDemand())
        est_->onComplete(req.core);
}

void
FstScheduler::tick(Tick now)
{
    est_->tick(now);
    if (now >= nextAdjustAt_) {
        adjust();
        nextAdjustAt_ += cfg_.interval;
    }
}

Tick
FstScheduler::nextWakeTick(Tick now) const
{
    return std::max(std::min(est_->nextEpochTick(), nextAdjustAt_),
                    now + 1);
}

void
FstScheduler::adjust()
{
    CoreId most = 0, least = 0;
    for (unsigned c = 1; c < numCores_; ++c) {
        if (est_->slowdown(c) > est_->slowdown(most))
            most = static_cast<CoreId>(c);
        if (est_->slowdown(c) < est_->slowdown(least))
            least = static_cast<CoreId>(c);
    }
    const double unfairness =
        est_->slowdown(most) / std::max(1.0, est_->slowdown(least));

    constexpr int num_levels =
        static_cast<int>(sizeof(kLevels) / sizeof(kLevels[0]));
    if (unfairness > cfg_.unfairnessThresh) {
        // Throttle the interferer down one level, free the victim.
        levelIdx_[least] =
            std::min(levelIdx_[least] + 1, num_levels - 1);
        levelIdx_[most] = std::max(levelIdx_[most] - 1, 0);
    } else {
        // System is fair enough: gradually unthrottle everyone.
        for (unsigned c = 0; c < numCores_; ++c)
            levelIdx_[c] = std::max(levelIdx_[c] - 1, 0);
    }
    for (unsigned c = 0; c < numCores_; ++c)
        levels_[c] = kLevels[levelIdx_[c]];
}

void
FstScheduler::checkpoint(ckpt::Archive &a)
{
    RankedFrfcfs::checkpoint(a);
    est_->checkpoint(a);
    a.vecF64(levels_);
    std::uint64_t n = levelIdx_.size();
    a.u64(n);
    a.check(levels_.size() == numCores_ && n == numCores_,
            "fst core count mismatch");
    for (int &v : levelIdx_)
        a.index(v, std::size(kLevels), "fst throttle level");
    a.u64(nextAdjustAt_);
    for (const auto &g : gates_)
        g->checkpoint(a);
}

} // namespace mitts

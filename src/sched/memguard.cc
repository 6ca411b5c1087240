#include "sched/memguard.hh"

#include <algorithm>
#include <numeric>

#include "base/logging.hh"
#include "memctrl/mem_controller.hh"

namespace mitts
{

bool
MemGuardGate::tryIssue(MemRequest &req, Tick now)
{
    (void)req;
    return ctrl_.request(core_, now);
}

Tick
MemGuardGate::nextIssueTick(Tick now) const
{
    // If any admission path (own budget, reclaim, best-effort on an
    // idle MC) is open right now, the gate can pass next cycle.
    // Otherwise the only spontaneous unblock is the periodic budget
    // reset: used counters never decrease within a period and the MC
    // queue can only drain to empty on an executed cycle, after which
    // the global wake is recomputed anyway.
    if (ctrl_.canIssueNow(core_))
        return now + 1;
    return std::max(ctrl_.nextResetTick(), now + 1);
}

MemGuardController::MemGuardController(std::string name,
                                       unsigned num_cores,
                                       const MemGuardConfig &cfg)
    : Clocked(std::move(name)), cfg_(cfg), numCores_(num_cores),
      budget_(num_cores, 0), used_(num_cores, 0),
      nextResetAt_(cfg.period)
{
    std::vector<double> w = cfg.weights;
    if (w.empty())
        w.assign(num_cores, 1.0);
    MITTS_ASSERT(w.size() == num_cores, "weight vector size");
    const double wsum = std::accumulate(w.begin(), w.end(), 0.0);

    const double total_requests = cfg.guaranteedFraction *
                                  cfg.peakRequestsPerCycle *
                                  static_cast<double>(cfg.period);
    for (unsigned c = 0; c < num_cores; ++c) {
        budget_[c] = static_cast<std::uint64_t>(
            total_requests * w[c] / wsum);
        globalBudget_ += budget_[c];
        gates_.push_back(std::make_unique<MemGuardGate>(
            *this, static_cast<CoreId>(c)));
    }
}

bool
MemGuardController::request(CoreId core, Tick now)
{
    (void)now;
    if (used_[core] < budget_[core]) {
        ++used_[core];
        ++globalUsed_;
        return true;
    }
    // Reclaim: draw from budget other cores have not used yet.
    if (globalUsed_ < globalBudget_) {
        ++used_[core];
        ++globalUsed_;
        return true;
    }
    // Best effort: only when the memory controller sits idle.
    if (mc_ && mc_->queueSize() == 0) {
        ++used_[core];
        return true;
    }
    return false;
}

bool
MemGuardController::canIssueNow(CoreId core) const
{
    if (used_[core] < budget_[core])
        return true;
    if (globalUsed_ < globalBudget_)
        return true;
    return mc_ && mc_->queueSize() == 0;
}

void
MemGuardController::tick(Tick now)
{
    if (now >= nextResetAt_) {
        std::fill(used_.begin(), used_.end(), 0);
        globalUsed_ = 0;
        nextResetAt_ += cfg_.period;
    }
}

} // namespace mitts

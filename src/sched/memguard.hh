/**
 * @file
 * MemGuard (Yun/Caccamo et al., RTAS 2013) memory bandwidth
 * reservation, best-effort reimplementation.
 *
 * Each core gets a guaranteed per-period request budget. Exhausted
 * cores may reclaim budget other cores are predicted not to use; once
 * the global guaranteed budget is spent, requests proceed best-effort
 * only while the memory controller is otherwise idle. Enforcement is
 * at the source through per-core gates over FR-FCFS.
 */

#ifndef MITTS_SCHED_MEMGUARD_HH
#define MITTS_SCHED_MEMGUARD_HH

#include <algorithm>
#include <memory>
#include <vector>

#include "base/stats.hh"
#include "cache/interfaces.hh"
#include "ckpt/serialize.hh"
#include "sim/clocked.hh"

namespace mitts
{

class MemController;

struct MemGuardConfig
{
    /** Regulation period, scaled to this repo's run lengths
     *  (DESIGN.md "Run-length scaling"). */
    Tick period = 25'000;
    /**
     * Guaranteed fraction of peak bandwidth split across cores
     * (MemGuard guarantees r_min, below peak to stay feasible).
     */
    double guaranteedFraction = 0.9;
    double peakRequestsPerCycle = 1.0 / 14.0; ///< 1/tBURST
    /** Optional per-core weights (empty = equal split). */
    std::vector<double> weights;
};

class MemGuardController;

/** Per-core budget enforcement gate. */
class MemGuardGate : public SourceGate
{
  public:
    MemGuardGate(MemGuardController &ctrl, CoreId core)
        : ctrl_(ctrl), core_(core)
    {
    }

    bool tryIssue(MemRequest &req, Tick now) override;
    Tick nextIssueTick(Tick now) const override;

  private:
    MemGuardController &ctrl_;
    CoreId core_;
};

class MemGuardController : public Clocked, public ckpt::Serializable
{
  public:
    MemGuardController(std::string name, unsigned num_cores,
                       const MemGuardConfig &cfg);

    /** MC used for the best-effort idleness check. */
    void setMemController(const MemController *mc) { mc_ = mc; }

    SourceGate *gate(CoreId core) { return gates_[core].get(); }

    /** Called by gates; consumes budget on success. */
    bool request(CoreId core, Tick now);

    /** Would request() succeed right now? Side-effect free. */
    bool canIssueNow(CoreId core) const;

    void tick(Tick now) override;

    /** Budgets only change at the periodic reset. */
    Tick
    nextWakeTick(Tick now) const override
    {
        return std::max(nextResetAt_, now + 1);
    }

    /** Next budget-reset deadline (gate wake computation). */
    Tick nextResetTick() const { return nextResetAt_; }

    std::uint64_t budget(CoreId core) const { return budget_[core]; }
    std::uint64_t used(CoreId core) const { return used_[core]; }

  protected:
    void
    checkpoint(ckpt::Archive &a) override
    {
        a.vecU64(budget_);
        a.vecU64(used_);
        a.check(budget_.size() == numCores_ && used_.size() == numCores_,
                "memguard core count mismatch");
        a.u64(globalBudget_);
        a.u64(globalUsed_);
        a.u64(nextResetAt_);
    }

  private:
    // detlint-transient(construction-time config; never mutated after build)
    MemGuardConfig cfg_;
    // fixed at construction; restore validates counts against it
    unsigned numCores_;
    const MemController *mc_ = nullptr;
    // detlint-transient(stateless per-core facades over controller state)
    std::vector<std::unique_ptr<MemGuardGate>> gates_;
    std::vector<std::uint64_t> budget_;
    std::vector<std::uint64_t> used_;
    std::uint64_t globalBudget_ = 0;
    std::uint64_t globalUsed_ = 0;
    Tick nextResetAt_;
};

} // namespace mitts

#endif // MITTS_SCHED_MEMGUARD_HH

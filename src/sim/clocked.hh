/**
 * @file
 * Interface for components driven by the CPU clock.
 */

#ifndef MITTS_SIM_CLOCKED_HH
#define MITTS_SIM_CLOCKED_HH

#include <string>

#include "base/types.hh"

namespace mitts
{

class Simulation;

/**
 * A component ticked once per CPU cycle by the owning Simulation.
 *
 * Components are registered with Simulation::add in dependency order;
 * within a cycle they are ticked in registration order. The simulated
 * chip registers cores first, then caches, then the memory controller,
 * so a request can traverse at most one hierarchy level per cycle —
 * matching the one-cycle-per-hop pipeline of the modelled hardware.
 *
 * Quiescence contract (skip-ahead scheduling): after every executed
 * cycle the Simulation asks each component for its next wake tick and
 * fast-forwards time across globally idle gaps. A component
 * participates by overriding nextWakeTick() (and, when its idle cycles
 * accrue linear per-cycle state such as stall counters, onFastForward()
 * to replicate exactly what the skipped ticks would have done). The
 * defaults — always awake, nothing to account — keep out-of-tree
 * components correct without changes.
 */
class Clocked
{
  public:
    explicit Clocked(std::string name) : name_(std::move(name)) {}
    virtual ~Clocked() = default;

    Clocked(const Clocked &) = delete;
    Clocked &operator=(const Clocked &) = delete;

    /** Advance one CPU cycle. `now` is the cycle being executed. */
    virtual void tick(Tick now) = 0;

    /**
     * Earliest future cycle at which tick() may do anything that
     * onFastForward() does not replicate. `now` is the cycle that was
     * just executed; the returned tick must be > now (kTickNever =
     * sleep until external activity re-awakens the system).
     *
     * Rules (see DESIGN.md "Simulation kernel"):
     *  - Never under-report: returning a tick later than the first
     *    cycle with unreplicated effects breaks determinism.
     *  - Over-reporting activity (waking too early, default now + 1)
     *    is always safe — an executed tick on a quiescent component is
     *    a no-op and wakes are recomputed after every executed cycle.
     *  - The answer only needs to hold while no other component or
     *    event executes; any executed cycle triggers recomputation.
     */
    virtual Tick
    nextWakeTick(Tick now) const
    {
        return now + 1;
    }

    /**
     * Cycles [from, to) are being skipped as globally quiescent. Apply
     * exactly the per-cycle state changes tick() would have made over
     * that range (stall counters, capped accumulators). Must not alter
     * any state another component can observe changing mid-skip — all
     * cross-component interaction happens on executed cycles only.
     */
    virtual void
    onFastForward(Tick from, Tick to)
    {
        (void)from;
        (void)to;
    }

    const std::string &name() const { return name_; }

  private:
    std::string name_;
};

} // namespace mitts

#endif // MITTS_SIM_CLOCKED_HH

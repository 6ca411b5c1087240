/**
 * @file
 * Quiescence-aware simulation driver.
 *
 * The kernel executes cycles (event drain + all component ticks) and,
 * between executed cycles, fast-forwards across globally idle gaps:
 * the next cycle to execute is the minimum of the earliest pending
 * event and every component's self-reported nextWakeTick(). After
 * every executed cycle the components are polled, starting at the one
 * that was awake at the previous decision, until one claims the next
 * cycle, so a busy system usually stops after one call. Skipped
 * regions are provably no-op-or-linear: components whose idle cycles
 * accrue per-cycle counters replicate them via onFastForward(), so
 * skip-ahead on vs off is bit-identical (stats dumps, telemetry CSVs,
 * trace-event JSON). See DESIGN.md "Simulation kernel".
 */

#ifndef MITTS_SIM_SIMULATION_HH
#define MITTS_SIM_SIMULATION_HH

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <ostream>
#include <vector>

#include "base/logging.hh"
#include "base/stats.hh"
#include "base/types.hh"
#include "sim/clocked.hh"
#include "sim/event_queue.hh"

namespace mitts
{

/** Kernel knobs (SystemConfig::sim; mitts_sim --no-skip). */
struct SimulationConfig
{
    /** Fast-forward across globally quiescent gaps. Off = execute
     *  every cycle (the A/B reference mode). Also forced off by the
     *  MITTS_SIM_NO_SKIP environment variable. */
    bool skipAhead = true;
    /** Paranoia mode: instead of skipping, execute claimed-quiescent
     *  regions cycle by cycle while asserting every component's wake
     *  claim still holds. Also enabled by MITTS_SIM_VERIFY_SKIP=1. */
    bool verifySkip = false;
};

/**
 * Owns simulated time. Components are registered (not owned) in tick
 * order; stats groups are registered for dumping. The driver alternates
 * event-queue drain and component ticks each executed cycle and skips
 * whole cycles only — an executed cycle always ticks every component,
 * so cross-component interaction ordering is identical in both modes.
 */
class Simulation
{
  public:
    Simulation() : Simulation(SimulationConfig{}) {}

    explicit Simulation(const SimulationConfig &cfg) : cfg_(cfg)
    {
        if (envFlag("MITTS_SIM_NO_SKIP"))
            cfg_.skipAhead = false;
        if (envFlag("MITTS_SIM_VERIFY_SKIP"))
            cfg_.verifySkip = true;
    }

    /** Register a component; ticked in registration order. */
    void add(Clocked *c) { components_.push_back(c); }

    /** Register a stats group for dumpStats(). */
    void addStats(stats::Group *g) { statGroups_.push_back(g); }

    /** Current cycle (the cycle being executed during a tick). */
    Tick now() const { return now_; }

    /** Typed event queue shared by all components. */
    EventQueue &events() { return events_; }

    bool skipAhead() const { return cfg_.skipAhead; }
    void setSkipAhead(bool on) { cfg_.skipAhead = on; }

    /** Paranoia mode (SimulationConfig::verifySkip or the
     *  MITTS_SIM_VERIFY_SKIP environment variable). */
    bool verifySkip() const { return cfg_.verifySkip; }

    /** Whole-cycle gaps fast-forwarded so far (introspection). */
    std::uint64_t cyclesSkipped() const { return cyclesSkipped_; }

    /**
     * Checkpoint the kernel's own state. The event queue is handled
     * separately by the System, which installs its event handler.
     * cyclesSkipped_ is introspection-only and deliberately not part
     * of the bit-identity contract (skip and no-skip runs differ in
     * it by construction), but round-tripping it keeps a resumed run's
     * diagnostics meaningful.
     */
    void
    checkpoint(ckpt::Archive &a)
    {
        a.u64(now_);
        a.u64(cyclesSkipped_);
    }

    /** Run for `cycles` more cycles. */
    void
    run(Tick cycles)
    {
        const Tick end = now_ + cycles;
        while (now_ < end)
            stepAndSkip(end);
    }

    /**
     * Run until `done()` returns true or `maxCycles` elapse.
     *
     * Due events are drained before each predicate evaluation, so a
     * predicate reading event-updated state (e.g. load completions
     * landed on a freshly fast-forwarded cycle) never observes a stale
     * pre-drain snapshot. Predicates must be functions of simulation
     * state (counters, component phases) — state is frozen across
     * skipped cycles, so a predicate comparing `now()` against a raw
     * tick threshold may be first observed past that threshold.
     *
     * @return true when the predicate fired (not the cycle limit).
     */
    bool
    runUntil(const std::function<bool()> &done, Tick max_cycles)
    {
        const Tick end = now_ + max_cycles;
        while (now_ < end) {
            events_.runDue(now_);
            if (done())
                return true;
            stepAndSkip(end);
        }
        return done();
    }

    /** Execute exactly one cycle (never skips). */
    void
    step()
    {
        events_.runDue(now_);
        for (auto *c : components_)
            c->tick(now_);
        ++now_;
    }

    void
    dumpStats(std::ostream &os) const
    {
        for (const auto *g : statGroups_)
            g->dump(os);
    }

    void
    resetStats()
    {
        for (auto *g : statGroups_)
            g->reset();
    }

  private:
    static bool
    envFlag(const char *name)
    {
        const char *v = std::getenv(name);
        return v && *v && !(v[0] == '0' && v[1] == '\0');
    }

    /**
     * Global next wake after an executed cycle: the earliest cycle
     * >= now() that cannot be skipped, i.e. the minimum of the
     * earliest pending event and every component's nextWakeTick().
     *
     * The poll starts at hot_, the component that ended the previous
     * one, and wraps around; the first claim of now() ends it. A busy
     * component tends to stay busy, so a saturated system usually
     * pays one call here, while an idle one polls everyone and gets
     * the exact minimum. The start index changes how many claims are
     * read, never the answer.
     */
    Tick
    nextWake()
    {
        Tick wake = events_.nextEventTick();
        if (wake <= now_)
            return now_;
        const Tick executed = now_ - 1;
        const std::size_t n = components_.size();
        for (std::size_t k = 0, i = hot_; k < n; ++k) {
            const Tick claim = components_[i]->nextWakeTick(executed);
            if (claim <= now_) {
                hot_ = i;
                return now_;
            }
            wake = std::min(wake, claim);
            if (++i == n)
                i = 0;
        }
        return wake;
    }

    /**
     * Execute one cycle, then — bounded by `limit` — fast-forward to
     * the global next wake if it lies beyond the next cycle.
     */
    void
    stepAndSkip(Tick limit)
    {
        step();
        if (!cfg_.skipAhead || now_ >= limit)
            return;
        Tick wake = nextWake();
        if (wake <= now_)
            return;
        wake = std::min(wake, limit);
        if (cfg_.verifySkip) {
            verifyQuiescent(wake);
            return;
        }
        for (auto *c : components_)
            c->onFastForward(now_, wake);
        cyclesSkipped_ += wake - now_;
        now_ = wake;
    }

    /**
     * MITTS_SIM_VERIFY_SKIP: execute the claimed-quiescent region
     * [now_, wake) cycle by cycle, re-asserting before every cycle
     * that no component or event claims work inside it. Per-cycle
     * counters accrue naturally (onFastForward is not applied), so
     * outputs match the no-skip kernel while wake-claim honesty —
     * the "never under-report" rule — is checked exhaustively.
     */
    void
    verifyQuiescent(Tick wake)
    {
        while (now_ < wake) {
            MITTS_ASSERT(events_.nextEventTick() >= wake,
                         "event due inside skipped region [", now_,
                         ", ", wake, ")");
            for (const auto *c : components_) {
                MITTS_ASSERT(c->nextWakeTick(now_ - 1) >= wake,
                             "component '", c->name(),
                             "' under-reported its wake: claims ",
                             c->nextWakeTick(now_ - 1),
                             " inside skipped region [", now_, ", ",
                             wake, ")");
            }
            step();
        }
    }

    // detlint-transient(construction-time config; never mutated after build)
    SimulationConfig cfg_;
    Tick now_ = 0;
    std::uint64_t cyclesSkipped_ = 0;
    std::vector<Clocked *> components_;
    // detlint-transient(poll start only; never changes the wake)
    std::size_t hot_ = 0;
    std::vector<stats::Group *> statGroups_;
    // detlint-transient(checkpointed by the System, which installs the event handler)
    EventQueue events_;
};

} // namespace mitts

#endif // MITTS_SIM_SIMULATION_HH

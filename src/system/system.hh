/**
 * @file
 * The simulated chip: cores + L1s + gates + shared LLC + memory
 * controller + DRAM, wired per a SystemConfig.
 */

#ifndef MITTS_SYSTEM_SYSTEM_HH
#define MITTS_SYSTEM_SYSTEM_HH

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "cache/interfaces.hh"
#include "ckpt/serialize.hh"
#include "shaper/congestion.hh"
#include "cache/l1_cache.hh"
#include "cache/shared_llc.hh"
#include "core/core.hh"
#include "memctrl/mem_controller.hh"
#include "sched/mem_scheduler.hh"
#include "shaper/static_gate.hh"
#include "sim/simulation.hh"
#include "system/config.hh"
#include "trace/synth_trace.hh"

namespace mitts
{

/** Completion record for one application in a run. */
struct AppResult
{
    std::string name;
    Tick completedAt = 0;       ///< cycle the app hit its target
    bool completed = false;
    std::uint64_t instructions = 0;
    std::uint64_t memStallCycles = 0;
};

class System : public AppMonitor, public EventHandler
{
  public:
    explicit System(const SystemConfig &cfg);
    ~System() override;

    /** The event queue holds a pointer to this System (its
     *  handler), so a System never moves. */
    System(const System &) = delete;
    System &operator=(const System &) = delete;

    // AppMonitor
    unsigned numCores() const override { return numCores_; }
    std::uint64_t instructions(CoreId core) const override;
    std::uint64_t memStallCycles(CoreId core) const override;

    unsigned numApps() const
    {
        return static_cast<unsigned>(cfg_.apps.size());
    }
    const std::string &appName(unsigned app) const
    {
        return cfg_.apps[app];
    }
    unsigned appOfCore(CoreId core) const { return appOfCore_[core]; }
    const std::vector<CoreId> &coresOfApp(unsigned app) const
    {
        return coresOfApp_[app];
    }

    Simulation &sim() { return sim_; }
    Tick now() const { return sim_.now(); }
    /** Arena all this system's MemRequests are allocated from. */
    RequestPool &pool() { return pool_; }
    Core &core(CoreId c) { return *cores_[c]; }
    /** The trace source feeding core `c` (a SyntheticTrace by
     *  default; whatever cfg.traceFactory built otherwise). */
    TraceSource &trace(CoreId c) { return *traces_[c]; }
    L1Cache &l1(CoreId c) { return *l1s_[c]; }
    SharedLlc &llc() { return *llc_; }
    MeshNoc *noc() { return noc_.get(); }
    MemController &memController() { return *mc_; }
    MemScheduler &scheduler() { return *sched_; }

    /** MITTS shaper for a core (nullptr unless gate == Mitts). */
    MittsShaper *shaper(CoreId c) { return shapers_[c]; }

    /** Congestion controller (nullptr unless enabled). */
    CongestionController *congestionController()
    {
        return congestionCtrl_.get();
    }
    /** Static gate for a core (nullptr unless gate == Static). */
    StaticRateGate *staticGate(CoreId c) { return staticGates_[c]; }

    /** Reconfigure one core's shaper (no-op without a shaper). */
    void setShaperConfig(CoreId core, const BinConfig &cfg);

    /** Telemetry hub (nullptr unless cfg.telemetry.enabled). */
    telemetry::Telemetry *telemetry() { return telemetry_.get(); }

    /** Flush the partial last telemetry window and write the trace
     *  file. Idempotent; also runs from the destructor. */
    void finalizeTelemetry();

    /** Run for a fixed number of cycles. */
    void run(Tick cycles) { sim_.run(cycles); }

    /**
     * Run until every app has retired `instr_target` instructions per
     * core (or `max_cycles` pass). Returns per-app completion info.
     */
    std::vector<AppResult> runUntilInstructions(std::uint64_t
                                                    instr_target,
                                                Tick max_cycles);

    void dumpStats(std::ostream &os) const { sim_.dumpStats(os); }

    const SystemConfig &config() const { return cfg_; }

    // --- Checkpoint / restore -------------------------------------

    /** Hash of every simulation-visible config field (excludes
     *  kernel-mode and output-path knobs; see ckpt/config_hash.hh). */
    std::uint64_t checkpointHash() const;

    /**
     * Write a full-state snapshot to `path` (atomically: temp file +
     * rename). A run restored from it and a run that never stopped
     * produce byte-identical stats dumps, telemetry CSV and trace
     * JSON. Throws ckpt::Error on I/O failure.
     */
    void saveCheckpoint(const std::string &path);

    /**
     * Restore a snapshot into this freshly constructed system (built
     * from the same config; must not have simulated yet). Throws
     * ckpt::Error on magic/version/config-hash/CRC mismatch or any
     * structural inconsistency.
     */
    void restoreCheckpoint(const std::string &path);

    /**
     * Register an external component (online tuner, phase switcher)
     * whose state rides along in the checkpoint as a named section.
     * Register in the same order before save and before restore.
     */
    void
    addCheckpointExtra(std::string name, ckpt::Serializable *s)
    {
        ckptExtras_.emplace_back(std::move(name), s);
    }

    /**
     * Invoked after every 32-cycle batch inside
     * runUntilInstructions() — the only cycle counts that path can
     * stop at, hence the only safe checkpoint instants for it.
     */
    void
    setBatchCallback(std::function<void(Tick)> cb)
    {
        batchCallback_ = std::move(cb);
    }

    // EventHandler: routes each event to its component.
    void fire(const EventDesc &d, Tick when) override;
    void validate(const EventDesc &d) const override;

  private:
    void buildScheduler();
    /** The one walk over every section, shared by save and restore. */
    void walkSections(ckpt::Archive &a);
    /** Restore-side: every load a valid L1 MSHR will complete waits
     *  for a fill in its core's window (throws ckpt::Error). */
    void checkMshrWaiters() const;

    const SystemConfig cfg_;
    /** configHash(cfg_), taken once (cfg_ is const). */
    std::uint64_t configHash_;
    unsigned numCores_ = 0;

    /** Declared before sim_ and every component: queues, events and
     *  miss lists hold ReqPtr handles whose release touches the pool,
     *  so the pool must be destroyed last. */
    RequestPool pool_;

    Simulation sim_;

    /** Declared before the components so the probe registry outlives
     *  the ProbeOwners that unregister from it on destruction. */
    std::unique_ptr<telemetry::Telemetry> telemetry_;

    std::vector<unsigned> appOfCore_;
    std::vector<std::vector<CoreId>> coresOfApp_;

    std::vector<std::unique_ptr<TraceSource>> traces_;
    std::vector<std::unique_ptr<L1Cache>> l1s_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::unique_ptr<SharedLlc> llc_;
    std::unique_ptr<MeshNoc> noc_;
    std::unique_ptr<MemController> mc_;
    std::unique_ptr<MemScheduler> sched_;
    std::unique_ptr<Clocked> extraClocked_; ///< MemGuard controller
    std::unique_ptr<CongestionController> congestionCtrl_;

    std::vector<std::unique_ptr<SourceGate>> ownedGates_;
    std::vector<MittsShaper *> shapers_;
    std::vector<StaticRateGate *> staticGates_;

    /** Completion cycle per app (kTickNever = not yet); persists
     *  across checkpoints so a resumed instruction-target run reports
     *  the original completion times. */
    std::vector<Tick> appCompletedAt_;
    std::vector<std::pair<std::string, ckpt::Serializable *>>
        ckptExtras_;
    std::function<void(Tick)> batchCallback_;
};

} // namespace mitts

#endif // MITTS_SYSTEM_SYSTEM_HH

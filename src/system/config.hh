/**
 * @file
 * Whole-system configuration (paper Table II defaults).
 */

#ifndef MITTS_SYSTEM_CONFIG_HH
#define MITTS_SYSTEM_CONFIG_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/l1_cache.hh"
#include "trace/app_profile.hh"
#include "cache/shared_llc.hh"
#include "core/core.hh"
#include "dram/dram_config.hh"
#include "memctrl/mem_controller.hh"
#include "noc/mesh.hh"
#include "sched/atlas.hh"
#include "sched/fst.hh"
#include "sched/memguard.hh"
#include "sched/mise.hh"
#include "sched/tcm.hh"
#include "shaper/bin_config.hh"
#include "shaper/congestion.hh"
#include "shaper/mitts_shaper.hh"
#include "sim/simulation.hh"
#include "telemetry/telemetry.hh"
#include "trace/trace_source.hh"

namespace mitts
{

/** Memory-controller scheduling policy selection. */
enum class SchedulerKind
{
    Frfcfs,
    FairQueue,
    Atlas,
    Tcm,
    Fst,      ///< FR-FCFS + FST source throttling gates
    MemGuard, ///< FR-FCFS + MemGuard budget gates
    Mise,
};

/** Source gate installed between each L1 and the LLC. */
enum class GateKind
{
    None,   ///< pass-through (or the scheduler's own gates)
    Mitts,  ///< MITTS bin shaper
    Static, ///< constant-rate token bucket
};

/**
 * The name registry: one row per scheduler, in enum order, with the
 * spelling mitts_sim --sched and sweep files use and the display name
 * reports print. Nothing else in the tree spells a scheduler name.
 */
struct SchedulerInfo
{
    SchedulerKind kind;
    const char *cliName;
    const char *displayName;
};

inline constexpr SchedulerInfo kSchedulers[] = {
    {SchedulerKind::Frfcfs, "frfcfs", "FR-FCFS"},
    {SchedulerKind::FairQueue, "fairqueue", "FairQueue"},
    {SchedulerKind::Atlas, "atlas", "ATLAS"},
    {SchedulerKind::Tcm, "tcm", "TCM"},
    {SchedulerKind::Fst, "fst", "SourceThro"},
    {SchedulerKind::MemGuard, "memguard", "MemGuard"},
    {SchedulerKind::Mise, "mise", "MISE"},
};

/** Gate names, in enum order (mitts_sim --gate, sweep `gate`). */
inline constexpr std::pair<GateKind, const char *> kGates[] = {
    {GateKind::None, "none"},
    {GateKind::Mitts, "mitts"},
    {GateKind::Static, "static"},
};

/** Display name ("FR-FCFS", "SourceThro", ...). */
constexpr const char *
schedulerName(SchedulerKind k)
{
    return kSchedulers[static_cast<std::size_t>(k)].displayName;
}

/** CLI / sweep-file spelling ("frfcfs", "fst", ...). */
constexpr const char *
schedulerCliName(SchedulerKind k)
{
    return kSchedulers[static_cast<std::size_t>(k)].cliName;
}

constexpr const char *
gateName(GateKind g)
{
    return kGates[static_cast<std::size_t>(g)].second;
}

/** Every scheduler kind, in registry order. */
std::vector<SchedulerKind> allSchedulers();

/** Inverse of schedulerCliName / gateName; ConfigError if unknown. */
SchedulerKind schedulerFromName(const std::string &name);
GateKind gateFromName(const std::string &name);

/** "frfcfs|fairqueue|..." / "none|mitts|static" for --help text. */
std::string schedulerNameList();
std::string gateNameList();

struct SystemConfig
{
    /** Application profile names, one per app; multithreaded profiles
     *  expand to profile.numThreads cores. */
    std::vector<std::string> apps;

    /** Optional explicit profiles, parallel to `apps`. When set they
     *  override the registry lookup — the hook for user-defined
     *  workloads and calibration sweeps. */
    std::vector<AppProfile> customProfiles;

    /**
     * Optional trace-source factory, called once per core at
     * construction instead of building the default SyntheticTrace.
     * The hook for dynamic workloads (the cloud engine's per-slot
     * CloudTrace). Arguments: core id, app index, the app's profile,
     * the app's base address, the per-core master-RNG seed and the
     * thread index within the app. A closure cannot be serialized:
     * checkpoints record only its presence (ckpt/config_hash.cc) and
     * the factory owner must rebuild the same factory before
     * restoring.
     */
    std::function<std::unique_ptr<TraceSource>(
        CoreId, unsigned, const AppProfile &, Addr, std::uint64_t,
        unsigned)>
        traceFactory;

    CoreConfig core;
    L1Config l1;
    LlcConfig llc;
    McConfig mc;
    NocConfig noc; ///< L1<->LLC mesh (disabled by default)
    DramConfig dram = DramConfig::ddr3_1333();

    SchedulerKind sched = SchedulerKind::Frfcfs;
    TcmConfig tcm;
    AtlasConfig atlas;
    MiseConfig mise;
    FstConfig fst;
    MemGuardConfig memguard;

    GateKind gate = GateKind::None;
    BinSpec binSpec;
    HybridMethod hybridMethod = HybridMethod::ConservativeRefund;
    /** Per-core initial MITTS configs; empty = all credits maxed. */
    std::vector<BinConfig> mittsConfigs;
    /** One shaper shared by all threads of an app (Sec. IV-H). */
    bool sharedShaperPerApp = false;
    /** Enable the 32-entry global smoothing FIFO with MITTS. */
    bool useSmoothingFifo = true;
    /** Enable global congestion feedback to the shapers (paper
     *  Sec. III-C future work). */
    bool congestionFeedback = false;
    CongestionConfig congestion;

    /** Per-core static gate intervals (cycles/request). */
    std::vector<double> staticIntervals;
    double staticBucketDepth = 1.0;

    std::uint64_t seed = 12345;
    double cpuGhz = 2.4;

    /** Simulation-kernel knobs (skip-ahead, A/B verification). */
    SimulationConfig sim;

    /** Time-series / trace-event telemetry (off by default; when off
     *  no sampler is ticked and no probes are registered). */
    telemetry::TelemetryOptions telemetry;

    /** Single-program preset: one app, 64KB private-style LLC. */
    static SystemConfig
    singleProgram(const std::string &app)
    {
        SystemConfig c;
        c.apps = {app};
        c.llc.sizeBytes = 64 * 1024;
        c.llc.numBanks = 1;
        return c;
    }

    /** Multi-program preset: 1MB shared LLC (paper Table II). */
    static SystemConfig
    multiProgram(std::vector<std::string> app_names)
    {
        SystemConfig c;
        c.apps = std::move(app_names);
        c.llc.sizeBytes = 1024 * 1024;
        c.llc.numBanks = 8;
        return c;
    }
};

} // namespace mitts

#endif // MITTS_SYSTEM_CONFIG_HH

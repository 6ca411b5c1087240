/**
 * @file
 * Declarative sweep description for the experiment farm (ROADMAP
 * item 3): a multi-program mix plus the axes of a fig12-style design
 * grid, or the knobs of a GA tuning run, in the shared `key = value`
 * text of base/kv_text.hh (the cloud scenario files use it too).
 *
 * Grid mode expands the cartesian product of the sweep axes into
 * work units numbered 0..unitCount()-1 in a canonical row-major
 * order (axis order sched, seed, bins, llc-kb, instr; last axis
 * fastest). The unit index, not completion order, is the identity
 * everything downstream keys on: dispatch, retry, caching and the
 * final merge all address units by index, which is
 * what makes the merged output byte-identical for any worker count.
 *
 * Example:
 *
 *     name  = fig12-demo
 *     mode  = grid
 *     apps  = mcf,libquantum,omnetpp,apache
 *     instr = 20000
 *     sweep sched = frfcfs,tcm,atlas
 *     sweep seed  = 1,2
 *
 * Tune mode instead drives the offline GA over per-core MITTS bin
 * credits; `warmup = N` enables prefix-checkpoint warm-starts (see
 * DESIGN.md "Sweep orchestration").
 */

#ifndef MITTS_ORCHESTRATE_SWEEP_SPEC_HH
#define MITTS_ORCHESTRATE_SWEEP_SPEC_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "base/kv_text.hh"
#include "system/config.hh"
#include "tuner/objective.hh"

namespace mitts::orchestrate
{

/** Parse/validation failure; message carries file:line context. */
using SweepError = ConfigError;

enum class SweepMode
{
    Grid, ///< cartesian product of axes, one unit per point
    Tune, ///< GA over per-core bin credits, one job per genome
};

struct SweepSpec
{
    std::string name = "sweep";
    SweepMode mode = SweepMode::Grid;

    // Base run (every unit starts from this).
    std::vector<std::string> apps;
    std::uint64_t instr = 20'000;
    std::uint64_t maxCycles = 10'000'000;
    std::uint64_t llcKb = 1024;
    std::uint64_t seed = 12345;
    GateKind gate = GateKind::None;

    // Grid axes (empty = the base value, a single point).
    std::vector<std::string> schedAxis;
    std::vector<std::uint64_t> seedAxis;
    /** Each entry: one credit vector applied to every core; length
     *  must equal the default BinSpec's numBins. Requires
     *  gate = mitts. */
    std::vector<std::vector<std::uint32_t>> binsAxis;
    std::vector<std::uint64_t> llcKbAxis;
    std::vector<std::uint64_t> instrAxis;

    // Tune mode.
    Objective objective = Objective::Throughput;
    unsigned generations = 4;
    unsigned population = 8;
    std::uint64_t gaSeed = 0xC0FFEE;
    bool prefilter = false;
    /** Instructions per core of the shared unshaped warm-up prefix;
     *  0 = cold evaluation of every genome. */
    std::uint64_t warmupInstr = 0;
};

/** One expanded grid point. */
struct UnitSpec
{
    std::uint64_t index = 0;
    SchedulerKind sched = SchedulerKind::Frfcfs;
    std::uint64_t seed = 12345;
    /** Empty = no shaping (bins axis absent or gate != mitts). */
    std::vector<std::uint32_t> bins;
    std::uint64_t llcKb = 1024;
    std::uint64_t instr = 20'000;
};

/** Bump when the result-record layout or unit semantics change; the
 *  version is folded into every cache key so stale entries miss.
 *  v2: static and FST gates hold exact integer tokens. */
constexpr std::uint32_t kRecordVersion = 2;

/** Parse from a stream; `what` names the source in errors. */
SweepSpec parseSweep(std::istream &in, const std::string &what);

/** Parse a sweep file; throws SweepError on I/O or syntax. */
SweepSpec parseSweepFile(const std::string &path);

/** Throws SweepError unless the spec is self-consistent (known
 *  profiles and schedulers, bins axis only with gate = mitts, ...). */
void validateSweep(const SweepSpec &spec);

/** Canonical serialization (what the Init frame ships to workers);
 *  parseSweep of this text reproduces the spec exactly. */
std::string specToText(const SweepSpec &spec);

/** Cores the spec's mix occupies (profiles expand their threads). */
unsigned specNumCores(const SweepSpec &spec);

/** Grid size: product of the non-empty axis lengths. */
std::uint64_t unitCount(const SweepSpec &spec);

/** Expand unit `index` (row-major, last axis fastest). */
UnitSpec unitAt(const SweepSpec &spec, std::uint64_t index);

/** Full simulator configuration for one grid point. */
SystemConfig unitConfig(const SweepSpec &spec, const UnitSpec &unit);

/** Base configuration for tune mode (gate forced to Mitts). */
SystemConfig tuneBaseConfig(const SweepSpec &spec);

/**
 * Canonical one-line description of a unit ("unit <idx> sched=...").
 * First line of the unit's result record, and the collision check
 * stored beside its cache key: a lookup whose stored description
 * differs from the expected one is rejected as a key collision.
 */
std::string unitDesc(const SweepSpec &spec, const UnitSpec &unit);

/** Cache key: FNV-1a over the unit's full config hash plus the
 *  run-length knobs and kRecordVersion. */
std::uint64_t unitCacheKey(const SweepSpec &spec,
                           const UnitSpec &unit);

} // namespace mitts::orchestrate

#endif // MITTS_ORCHESTRATE_SWEEP_SPEC_HH

/**
 * @file
 * Parent-side sweep orchestrator (ROADMAP item 3, scale-out half).
 *
 * Expands a SweepSpec into work units, serves them from the result
 * cache where possible, dispatches the rest to N forked worker
 * processes (or evaluates inline when workers = 0), and merges the
 * results strictly by unit index into <out>/results.txt and
 * <out>/summary.json.
 *
 * Determinism contract: those two files are byte-identical for any
 * worker count, any cache state, and across a kill-and-resume of the
 * orchestrator — everything order- or time-dependent (dispatch
 * order, retries, wall times, hit counters) is confined to the
 * returned Counters and stdout. detlint R8 enforces the merge-by-
 * index half of this mechanically.
 *
 * Robustness: a worker that exits, closes its pipe mid-frame, or
 * blows its per-unit deadline is SIGKILLed and reaped; its in-flight
 * unit is re-queued up to `maxRetries` times on a respawned worker.
 * Every completed unit is stored in the result cache as it lands, so
 * a killed sweep resumes where it left off.
 */

#ifndef MITTS_ORCHESTRATE_ORCHESTRATOR_HH
#define MITTS_ORCHESTRATE_ORCHESTRATOR_HH

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "orchestrate/sweep_spec.hh"

namespace mitts::orchestrate
{

/** Unrecoverable orchestration failure (worker exec failure, retry
 *  budget exhausted, deterministic worker-side evaluation error). */
class OrchestrateError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

struct OrchestratorOptions
{
    /** Worker processes; 0 = evaluate inline in this process. */
    unsigned workers = 0;
    /** Binary to exec as `<workerExe> --worker` (required when
     *  workers > 0; normally the mitts_sweep binary itself). */
    std::string workerExe;
    /** Result-cache directory (shared across runs and sweeps). */
    std::string cacheDir;
    /** Output directory: results.txt, summary.json. */
    std::string outDir;
    /** Re-dispatches of one unit after worker crashes/timeouts. */
    unsigned maxRetries = 2;
    /** Per-dispatch wall-clock deadline before the worker is
     *  SIGKILLed; 0 = no deadline. */
    double unitTimeoutSec = 600.0;
};

struct OrchestratorCounters
{
    std::uint64_t totalUnits = 0;
    std::uint64_t dispatched = 0; ///< units actually simulated
    std::uint64_t cached = 0;     ///< served from the result cache
    std::uint64_t retried = 0;    ///< re-dispatches after failures
    std::uint64_t respawns = 0;   ///< replacement workers forked
    std::uint64_t gaEvaluated = 0;
    std::uint64_t gaCacheHits = 0;
    /** Busy wall time accumulated per worker slot (farm mode). */
    std::vector<std::uint64_t> workerWallMs;

    /** Human-readable dump ("sweep: units=... cached=..."). */
    void print(std::ostream &os, const std::string &name) const;
};

/**
 * Run a parsed + validated sweep end to end. Creates the output and
 * cache directories, writes <out>/results.txt and
 * <out>/summary.json atomically, and returns the (nondeterministic)
 * counters. Throws OrchestrateError / SweepError / ckpt::Error on
 * unrecoverable failures.
 */
OrchestratorCounters runSweep(const SweepSpec &spec,
                              const OrchestratorOptions &opts);

} // namespace mitts::orchestrate

#endif // MITTS_ORCHESTRATE_ORCHESTRATOR_HH

/**
 * @file
 * Sweep work-unit evaluation, shared by worker processes and the
 * orchestrator's inline (workers=0) mode.
 *
 * Everything that produces result bytes lives here, and is a pure
 * function of (spec, unit index) or (spec, genome): the same record
 * comes back whether it was computed in-process, in any of N
 * workers, or read back from the cache — the determinism contract
 * the CI sweep job byte-diffs.
 *
 * Alone-run baselines are cached in the shared result cache (keyed
 * on the alone config's hash), and tune-mode evaluations with
 * `warmup = N` restore a shared unshaped prefix checkpoint keyed on
 * ckpt::prefixConfigHash, then apply the genome's bins via
 * System::setShaperConfig before running on — so a GA generation
 * pays for the warm-up exactly once per cache lifetime.
 */

#ifndef MITTS_ORCHESTRATE_WORKER_HH
#define MITTS_ORCHESTRATE_WORKER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "orchestrate/result_cache.hh"
#include "orchestrate/sweep_spec.hh"
#include "tuner/ga.hh"

namespace mitts::orchestrate
{

/** Cache key for one genome's fitness under this spec. */
std::uint64_t genomeCacheKey(const SweepSpec &spec, const Genome &g);

/** Collision-check description stored with a genome's fitness. */
std::string genomeDesc(const SweepSpec &spec, const Genome &g);

/** Fitness <-> cache payload (IEEE-754 bit pattern in hex, so the
 *  round trip is bit-exact). */
std::string fitnessToPayload(double fitness);
bool fitnessFromPayload(const std::string &payload, double &out);

class WorkerContext
{
  public:
    WorkerContext(SweepSpec spec, const std::string &cache_dir);

    /** Full result record (text) for grid unit `index`. */
    std::string evaluateUnit(std::uint64_t index);

    /** Tune-mode fitness of one genome (higher is better). */
    double evaluateGenome(const Genome &g);

    const SweepSpec &spec() const { return spec_; }

    /** Unshaped base used for the warm-up prefix (saturated bins
     *  shape nothing, so the prefix is shaping-independent). */
    SystemConfig warmConfig() const;

    /** Path of the shared warm-up prefix checkpoint, creating it
     *  (atomically) on first use. Empty when warmup = 0. */
    std::string warmCheckpointPath();

    /** Alone-run baselines for `cfg`'s apps, served from / stored
     *  into the shared result cache. */
    std::vector<Tick> aloneFor(const SystemConfig &cfg,
                               std::uint64_t instr);

  private:
    SweepSpec spec_;
    ResultCache cache_;
    /** Per-process memo over the on-disk alone-baseline entries. */
    std::map<std::uint64_t, std::vector<Tick>> aloneMemo_;
};

/**
 * Child-process protocol loop: Init, then Unit/Genome requests until
 * Shutdown or EOF, over the (blocking) pipe fds. Evaluation errors
 * are reported as Error frames, not crashes. @return process exit
 * code.
 */
int workerMain(int in_fd, int out_fd);

} // namespace mitts::orchestrate

#endif // MITTS_ORCHESTRATE_WORKER_HH

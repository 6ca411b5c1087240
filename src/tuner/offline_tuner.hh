/**
 * @file
 * Offline genetic-algorithm tuner: profiles a workload by running the
 * full simulation per candidate configuration (paper Sec. IV-B,
 * "offline algorithm ... 20 generations and 30 children per
 * generation"). Children of a generation are evaluated in parallel.
 */

#ifndef MITTS_TUNER_OFFLINE_TUNER_HH
#define MITTS_TUNER_OFFLINE_TUNER_HH

#include <vector>

#include "iaas/pricing.hh"
#include "system/runner.hh"
#include "tuner/ga.hh"
#include "tuner/objective.hh"
#include "tuner/prefilter.hh"

namespace mitts
{

struct OfflineTunerOptions
{
    GaConfig ga;
    RunnerOptions run;
    /** Cap on evaluation threads; 0 = the process-wide pool sized by
     *  MITTS_THREADS (default: hardware concurrency). */
    unsigned maxThreads = 0;
    /** Extra seed configurations injected into the GA population
     *  (e.g. the static-search winner, or a known-good profile). */
    std::vector<BinConfig> seedConfigs;
    /** Analytic first-pass filter: rank each generation with the
     *  M/D/1 fast model and cycle-accurately evaluate only the top
     *  keepFraction (multi-program tuner only). Pruned children get
     *  a fitness strictly below every kept child's, preserving the
     *  analytic order, so the GA trajectory stays deterministic. */
    PreFilterOptions prefilter;
    /** External cycle-accurate evaluator (multi-program tuner only).
     *  When set it replaces the built-in in-process evaluation of a
     *  generation (or, with the prefilter, of the kept subset) —
     *  the hook the sweep orchestrator uses to shard evaluations
     *  across worker processes and serve them from its result
     *  cache. Must return index-ordered fitness values that are
     *  bit-identical to the in-process evaluation, or the GA
     *  trajectory will diverge from an unsharded run. */
    GeneticAlgorithm::BatchEvaluator caEvaluator;
};

/** Split a concatenated per-core genome into BinConfigs. */
std::vector<BinConfig> genomeToConfigs(const Genome &g,
                                       const BinSpec &spec,
                                       unsigned num_cores);

/** Concatenate per-core configs into one genome. */
Genome configsToGenome(const std::vector<BinConfig> &configs);

/** Result of a single-program tuning run. */
struct SingleTuneResult
{
    BinConfig best;
    Tick bestCycles = 0;
    double bestFitness = 0.0;
    GeneticAlgorithm::Result ga;
};

/**
 * Tune one application's bin configuration. `base` must have exactly
 * one (single-threaded) app and gate == Mitts.
 *
 * @param objective Performance or PerfPerCost
 * @param pricing   required for PerfPerCost
 * @param projection optional constraint projection (Fig. 11 uses
 *                   projectToStaticEquivalent)
 */
SingleTuneResult tuneSingleProgram(
    const SystemConfig &base, Objective objective,
    const PricingModel *pricing,
    GeneticAlgorithm::Projection projection,
    const OfflineTunerOptions &opts);

/** Result of a multi-program tuning run. */
struct MultiTuneResult
{
    std::vector<BinConfig> best; ///< one per core
    MultiProgramMetrics metrics;
    GeneticAlgorithm::Result ga;
    /** Evaluation accounting (the analytic pre-filter's savings show
     *  up as caEvaluations < analyticEvaluations). */
    std::uint64_t caEvaluations = 0;
    std::uint64_t analyticEvaluations = 0;
};

/**
 * Tune per-core bin configurations of a multi-program mix for
 * Throughput (min S_avg) or Fairness (min S_max).
 *
 * @param alone       alone-run cycle baselines (aloneCyclesForAll)
 * @param chip_budget if nonzero, total chip credits are projected to
 *                    this budget (the provisioned case of Fig. 16)
 */
MultiTuneResult tuneMultiProgram(const SystemConfig &base,
                                 const std::vector<Tick> &alone,
                                 Objective objective,
                                 std::uint64_t chip_budget,
                                 const OfflineTunerOptions &opts);

} // namespace mitts

#endif // MITTS_TUNER_OFFLINE_TUNER_HH

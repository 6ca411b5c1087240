#include "tuner/offline_tuner.hh"

#include <algorithm>
#include <optional>

#include "analytic/analytic_model.hh"
#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "tuner/constraints.hh"

namespace mitts
{

namespace
{

/**
 * Pool override implied by the tuner options: a private pool of
 * maxThreads when capped, or null (= the process-wide pool sized by
 * MITTS_THREADS) otherwise. The fitness values are index-ordered
 * either way, so the GA's trajectory is identical for every choice.
 */
std::optional<ThreadPool>
poolOverride(const OfflineTunerOptions &opts)
{
    if (opts.maxThreads)
        return std::optional<ThreadPool>(std::in_place,
                                         opts.maxThreads);
    return std::nullopt;
}

/** Heuristic seed genomes covering canonical shapes. */
void
addShapeSeeds(GeneticAlgorithm &ga, const BinSpec &spec,
              unsigned num_cores, std::uint32_t level)
{
    const unsigned n = spec.numBins;

    // The do-nothing configuration: saturated bins shape nothing, so
    // the GA can never do worse than the unshaped baseline.
    Genome unshaped(static_cast<std::size_t>(n) * num_cores,
                    spec.maxCredits);
    ga.seedWith(unshaped);

    // Uniform throttles at several strengths: chip-wide rate limits
    // are the coarse landmarks the fine-grained search refines.
    for (std::uint32_t l :
         {level, std::max<std::uint32_t>(1, level / 8),
          std::max<std::uint32_t>(1, level / 16)}) {
        Genome uniform(static_cast<std::size_t>(n) * num_cores, l);
        ga.seedWith(uniform);
    }

    Genome burst(unshaped.size(), 0);
    for (unsigned c = 0; c < num_cores; ++c) {
        burst[c * n] = std::min(4 * level, spec.maxCredits);
        burst[c * n + n - 1] = level;
    }
    ga.seedWith(burst);

    Genome bulk(unshaped.size(), 0);
    for (unsigned c = 0; c < num_cores; ++c)
        bulk[c * n + n - 1] = std::min(4 * level, spec.maxCredits);
    ga.seedWith(bulk);
}

} // namespace

std::vector<BinConfig>
genomeToConfigs(const Genome &g, const BinSpec &spec,
                unsigned num_cores)
{
    MITTS_ASSERT(g.size() ==
                     static_cast<std::size_t>(spec.numBins) * num_cores,
                 "genome length mismatch");
    std::vector<BinConfig> configs;
    for (unsigned c = 0; c < num_cores; ++c) {
        BinConfig cfg(spec);
        for (unsigned i = 0; i < spec.numBins; ++i)
            cfg.credits[i] = g[c * spec.numBins + i];
        cfg.clamp();
        configs.push_back(std::move(cfg));
    }
    return configs;
}

Genome
configsToGenome(const std::vector<BinConfig> &configs)
{
    Genome g;
    for (const auto &cfg : configs)
        for (auto k : cfg.credits)
            g.push_back(k);
    return g;
}

SingleTuneResult
tuneSingleProgram(const SystemConfig &base, Objective objective,
                  const PricingModel *pricing,
                  GeneticAlgorithm::Projection projection,
                  const OfflineTunerOptions &opts)
{
    MITTS_ASSERT(base.apps.size() == 1, "single-program tuner");
    MITTS_ASSERT(base.gate == GateKind::Mitts,
                 "tuner needs a MITTS gate");
    MITTS_ASSERT(objective == Objective::Performance ||
                     objective == Objective::PerfPerCost,
                 "single-program objective");
    MITTS_ASSERT(objective != Objective::PerfPerCost || pricing,
                 "perf/cost needs a pricing model");

    const BinSpec spec = base.binSpec;
    GeneticAlgorithm ga(opts.ga, GenomeSpec{spec.numBins,
                                            spec.maxCredits});
    if (projection)
        ga.setProjection(projection);
    for (const auto &seed : opts.seedConfigs)
        ga.seedWith(seed.credits);
    addShapeSeeds(ga, spec, 1,
                  std::max<std::uint32_t>(1, spec.maxCredits / 16));

    auto eval_one = [&](const Genome &g) -> double {
        SystemConfig cfg = base;
        cfg.mittsConfigs = genomeToConfigs(g, spec, 1);
        const Tick cycles = runSingle(cfg, opts.run);
        const double perf =
            static_cast<double>(opts.run.instrTarget) /
            static_cast<double>(cycles);
        if (objective == Objective::Performance)
            return perf;
        return pricing->perfPerCost(perf, cfg.mittsConfigs[0]);
    };

    std::optional<ThreadPool> local = poolOverride(opts);
    auto batch = [&](const std::vector<Genome> &gen) {
        return parallelMap(
            gen.size(),
            [&](std::size_t i) { return eval_one(gen[i]); },
            local ? &*local : nullptr);
    };

    SingleTuneResult result;
    result.ga = ga.run(batch);
    result.bestFitness = result.ga.bestFitness;
    result.best = genomeToConfigs(result.ga.best, spec, 1)[0];

    SystemConfig best_cfg = base;
    best_cfg.mittsConfigs = {result.best};
    result.bestCycles = runSingle(best_cfg, opts.run);
    return result;
}

MultiTuneResult
tuneMultiProgram(const SystemConfig &base,
                 const std::vector<Tick> &alone, Objective objective,
                 std::uint64_t chip_budget,
                 const OfflineTunerOptions &opts)
{
    MITTS_ASSERT(base.gate == GateKind::Mitts,
                 "tuner needs a MITTS gate");
    MITTS_ASSERT(objective == Objective::Throughput ||
                     objective == Objective::Fairness,
                 "multi-program objective");

    // Count cores (apps may be multithreaded).
    System probe(base);
    const unsigned num_cores = probe.numCores();

    const BinSpec spec = base.binSpec;
    GeneticAlgorithm ga(
        opts.ga,
        GenomeSpec{static_cast<std::size_t>(spec.numBins) * num_cores,
                   spec.maxCredits});
    addShapeSeeds(ga, spec, num_cores,
                  std::max<std::uint32_t>(1, spec.maxCredits / 16));

    if (chip_budget > 0) {
        ga.setProjection([spec, num_cores, chip_budget](Genome &g) {
            // Project the whole chip's credits onto the budget while
            // keeping the per-core proportions the GA chose.
            BinSpec chip = spec;
            chip.numBins = spec.numBins * num_cores;
            // Reuse the single-spec projection on the flat genome by
            // treating it as one long bin vector with the same
            // register width.
            projectToBudget(g, chip, chip_budget);
        });
    }

    auto eval_one = [&](const Genome &g) -> double {
        SystemConfig cfg = base;
        cfg.mittsConfigs = genomeToConfigs(g, spec, num_cores);
        const MultiOutcome out = runMulti(cfg, alone, opts.run);
        const double metric = objective == Objective::Throughput
                                  ? out.metrics.savg
                                  : out.metrics.smax;
        return 1.0 / std::max(1e-9, metric);
    };

    // Analytic fast path: alone baselines computed once, one model
    // solve (~µs) per candidate afterwards.
    const analytic::AnalyticModel model;
    std::optional<analytic::AnalyticModel::Context> actx;
    if (opts.prefilter.enabled)
        actx = model.makeContext(base);
    std::uint64_t ca_evals = 0, analytic_evals = 0;

    std::optional<ThreadPool> local = poolOverride(opts);

    // Cycle-accurate evaluation of an index-ordered genome batch:
    // in-process (parallelMap keeps the result index-ordered) or
    // through the external hook (the sweep farm).
    auto ca_batch = [&](const std::vector<Genome> &batch_gen) {
        ca_evals += batch_gen.size();
        if (opts.caEvaluator)
            return opts.caEvaluator(batch_gen);
        return parallelMap(
            batch_gen.size(),
            [&](std::size_t i) { return eval_one(batch_gen[i]); },
            local ? &*local : nullptr);
    };

    auto batch = [&](const std::vector<Genome> &gen) {
        if (!opts.prefilter.enabled)
            return ca_batch(gen);

        // Rank the generation analytically (sequential, so the
        // ranking is identical for every thread count)...
        std::vector<double> score;
        for (const auto &g : gen) {
            SystemConfig cfg = base;
            cfg.mittsConfigs = genomeToConfigs(g, spec, num_cores);
            const auto m = model.metricsFor(*actx, cfg);
            const double metric = objective == Objective::Throughput
                                      ? m.savg
                                      : m.smax;
            score.push_back(1.0 / std::max(1e-9, metric));
        }
        analytic_evals += gen.size();

        // ...then spend cycle-accurate runs on the top fraction
        // only, in index order.
        auto keep = prefilterKeep(score, opts.prefilter);
        std::sort(keep.begin(), keep.end());
        std::vector<Genome> kept_gen;
        kept_gen.reserve(keep.size());
        for (const std::size_t k : keep)
            kept_gen.push_back(gen[k]);
        const auto kept_fit = ca_batch(kept_gen);

        std::vector<double> fitness(gen.size(), 0.0);
        std::vector<bool> kept(gen.size(), false);
        double floor = kept_fit.empty() ? 0.0 : kept_fit[0];
        for (std::size_t j = 0; j < keep.size(); ++j) {
            fitness[keep[j]] = kept_fit[j];
            kept[keep[j]] = true;
            floor = std::min(floor, kept_fit[j]);
        }
        assignPrunedFitness(score, kept, floor, fitness);
        return fitness;
    };

    MultiTuneResult result;
    result.ga = ga.run(batch);
    result.caEvaluations = ca_evals;
    result.analyticEvaluations = analytic_evals;
    result.best = genomeToConfigs(result.ga.best, spec, num_cores);

    SystemConfig best_cfg = base;
    best_cfg.mittsConfigs = result.best;
    result.metrics = runMulti(best_cfg, alone, opts.run).metrics;
    return result;
}

} // namespace mitts

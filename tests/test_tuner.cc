/**
 * @file
 * Unit tests for the GA, constraint projections, and tuners.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "tuner/constraints.hh"
#include "tuner/ga.hh"
#include "tuner/offline_tuner.hh"
#include "tuner/online_tuner.hh"
#include "tuner/static_search.hh"

namespace mitts
{
namespace
{

TEST(Ga, SolvesSeparableToyProblem)
{
    GaConfig cfg;
    cfg.populationSize = 20;
    cfg.generations = 30;
    cfg.seed = 5;
    GeneticAlgorithm ga(cfg, GenomeSpec{6, 100});
    // Fitness peaks at gene values of 50.
    auto batch = [](const std::vector<Genome> &gen) {
        std::vector<double> f;
        for (const auto &g : gen) {
            double s = 0;
            for (auto v : g)
                s -= std::abs(static_cast<int>(v) - 50);
            f.push_back(s);
        }
        return f;
    };
    const auto res = ga.run(batch);
    EXPECT_GT(res.bestFitness, -40.0); // within ~6 per gene
    EXPECT_EQ(res.evaluations, 20u * 30u);
}

TEST(Ga, HistoryIsMonotone)
{
    GaConfig cfg;
    cfg.populationSize = 10;
    cfg.generations = 10;
    GeneticAlgorithm ga(cfg, GenomeSpec{4, 32});
    auto batch = [](const std::vector<Genome> &gen) {
        std::vector<double> f;
        for (const auto &g : gen)
            f.push_back(static_cast<double>(
                std::accumulate(g.begin(), g.end(), 0u)));
        return f;
    };
    const auto res = ga.run(batch);
    for (std::size_t i = 1; i < res.history.size(); ++i)
        EXPECT_GE(res.history[i], res.history[i - 1]);
}

TEST(Ga, SeedsEnterPopulation)
{
    GaConfig cfg;
    cfg.populationSize = 5;
    cfg.generations = 1;
    GeneticAlgorithm ga(cfg, GenomeSpec{3, 10});
    ga.seedWith({10, 10, 10}); // optimal for a sum objective
    auto batch = [](const std::vector<Genome> &gen) {
        std::vector<double> f;
        for (const auto &g : gen)
            f.push_back(static_cast<double>(
                std::accumulate(g.begin(), g.end(), 0u)));
        return f;
    };
    const auto res = ga.run(batch);
    EXPECT_EQ(res.best, (Genome{10, 10, 10}));
}

TEST(Ga, ProjectionApplied)
{
    GaConfig cfg;
    cfg.populationSize = 8;
    cfg.generations = 5;
    GeneticAlgorithm ga(cfg, GenomeSpec{4, 100});
    ga.setProjection([](Genome &g) {
        for (auto &v : g)
            v = std::min<std::uint32_t>(v, 7);
    });
    auto batch = [](const std::vector<Genome> &gen) {
        std::vector<double> f;
        for (const auto &g : gen) {
            for (auto v : g)
                EXPECT_LE(v, 7u);
            f.push_back(0.0);
        }
        return f;
    };
    ga.run(batch);
}

BinSpec
spec()
{
    BinSpec s;
    s.numBins = 10;
    s.intervalLength = 10;
    s.replenishPeriod = 1000;
    return s;
}

TEST(Constraints, BudgetProjectionExact)
{
    Genome g{0, 5, 0, 0, 20, 0, 0, 0, 0, 3};
    projectToBudget(g, spec(), 64);
    EXPECT_EQ(std::accumulate(g.begin(), g.end(), 0u), 64u);
}

TEST(Constraints, BudgetProjectionFromZero)
{
    Genome g(10, 0);
    projectToBudget(g, spec(), 10);
    EXPECT_EQ(std::accumulate(g.begin(), g.end(), 0u), 10u);
}

TEST(Constraints, AvgIntervalApproached)
{
    Genome g(10, 0);
    g[0] = 40; // all fast: avg interval 5
    projectToAvgInterval(g, spec(), 50.0);
    double w = 0, n = 0;
    for (unsigned i = 0; i < 10; ++i) {
        w += g[i] * (5.0 + 10.0 * i);
        n += g[i];
    }
    EXPECT_NEAR(w / n, 50.0, 6.0);
    EXPECT_EQ(n, 40.0);
}

TEST(Constraints, CombinedKeepsBudget)
{
    Genome g{9, 0, 0, 1, 0, 0, 0, 0, 0, 0};
    projectToStaticEquivalent(g, spec(), 30, 65.0);
    EXPECT_EQ(std::accumulate(g.begin(), g.end(), 0u), 30u);
}

TEST(GenomeConfig, RoundTrip)
{
    const BinSpec s = spec();
    Genome g(20);
    for (std::size_t i = 0; i < g.size(); ++i)
        g[i] = static_cast<std::uint32_t>(i * 3);
    const auto configs = genomeToConfigs(g, s, 2);
    ASSERT_EQ(configs.size(), 2u);
    EXPECT_EQ(configs[1].credits[0], 30u);
    EXPECT_EQ(configsToGenome(configs), g);
}

TEST(StaticSearch, IntervalConversion)
{
    // 1 GB/s at 2.4 GHz: 64B * 2.4 = 153.6 cycles per block.
    EXPECT_NEAR(intervalForGBps(1.0, 2.4), 153.6, 1e-9);
    EXPECT_NEAR(intervalForGBps(10.0, 2.4), 15.36, 1e-9);
}

TEST(OfflineTuner, ImprovesOverZeroCredits)
{
    SystemConfig base = SystemConfig::singleProgram("mcf");
    base.gate = GateKind::Mitts;
    base.seed = 21;

    OfflineTunerOptions opts;
    opts.ga.populationSize = 6;
    opts.ga.generations = 3;
    opts.run.instrTarget = 8'000;
    opts.run.maxCycles = 2'000'000;

    const auto res = tuneSingleProgram(
        base, Objective::Performance, nullptr, nullptr, opts);
    EXPECT_GT(res.best.totalCredits(), 0u);
    EXPECT_GT(res.bestCycles, 0u);

    // The tuned config must beat a nearly-starved one.
    SystemConfig starved = base;
    BinConfig tiny(base.binSpec);
    tiny.credits[9] = 1;
    starved.mittsConfigs = {tiny};
    const Tick starved_cycles = runSingle(starved, opts.run);
    EXPECT_LT(res.bestCycles, starved_cycles);
}

TEST(OnlineTuner, RunsConfigPhaseAndSettles)
{
    SystemConfig cfg = SystemConfig::multiProgram({"gcc", "mcf"});
    cfg.gate = GateKind::Mitts;
    cfg.seed = 17;
    System sys(cfg);

    OnlineTunerOptions topts;
    topts.epochLength = 500;
    topts.population = 4;
    topts.generations = 2;
    topts.softwareOverhead = 100;
    OnlineTuner tuner(sys, topts);
    sys.sim().add(&tuner);

    // Measure epochs: numCores. Eval: generations * population.
    // Total epochs = 2 + 2*4 = 10 -> 5000 cycles plus overheads.
    sys.run(40'000);
    EXPECT_TRUE(tuner.inRunPhase());
    EXPECT_EQ(tuner.bestConfigs().size(), 2u);
    EXPECT_GT(tuner.overheadApplied(), 0u);
}

TEST(OnlineTuner, PhasedModeReruns)
{
    SystemConfig cfg = SystemConfig::multiProgram({"gcc", "bzip"});
    cfg.gate = GateKind::Mitts;
    System sys(cfg);

    OnlineTunerOptions topts;
    topts.epochLength = 300;
    topts.population = 3;
    topts.generations = 1;
    topts.phaseLength = 10'000;
    OnlineTuner tuner(sys, topts);
    sys.sim().add(&tuner);
    sys.run(60'000);
    EXPECT_GE(tuner.configPhasesRun(), 2u);
}

} // namespace
} // namespace mitts

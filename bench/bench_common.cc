#include "bench_common.hh"

#include <cstdio>
#include <cstdlib>

#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "system/metrics.hh"
#include "trace/app_profile.hh"
#include "tuner/online_tuner.hh"

namespace mitts::bench
{

unsigned
scale()
{
    static const unsigned s = [] {
        if (const char *env = std::getenv("MITTS_BENCH_SCALE")) {
            const long v = std::atol(env);
            if (v >= 1 && v <= 100)
                return static_cast<unsigned>(v);
        }
        return 1u;
    }();
    return s;
}

RunnerOptions
runOptions(std::uint64_t base_target)
{
    RunnerOptions opts;
    opts.instrTarget = base_target * scale();
    opts.maxCycles = 400 * opts.instrTarget; // generous cap
    return opts;
}

GaConfig
gaConfig(unsigned population, unsigned generations)
{
    GaConfig cfg;
    cfg.populationSize = population;
    cfg.generations = generations;
    return cfg;
}

std::string
jsonPath(const std::string &filename)
{
#ifndef MITTS_REPO_ROOT
#define MITTS_REPO_ROOT "."
#endif
    std::string dir = MITTS_REPO_ROOT;
    if (const char *env = std::getenv("MITTS_BENCH_OUT_DIR"))
        dir = env;
    if (!dir.empty() && dir.back() != '/')
        dir += '/';
    return dir + filename;
}

void
header(const std::string &title)
{
    std::printf("\n==== %s ====\n", title.c_str());
    std::fflush(stdout);
}

void
row(const std::string &label,
    const std::vector<std::pair<std::string, double>> &cols)
{
    std::printf("%-24s", label.c_str());
    for (const auto &[name, value] : cols)
        std::printf("  %s=%.4g", name.c_str(), value);
    std::printf("\n");
    std::fflush(stdout);
}

std::vector<ComparisonRow>
schedulerComparison(unsigned workload, std::size_t llc_bytes,
                    const RunnerOptions &opts, bool include_online)
{
    SystemConfig base = SystemConfig::multiProgram(
        workloadApps(workload));
    base.llc.sizeBytes = llc_bytes;
    base.seed = 1000 + workload;

    const auto alone = aloneCyclesForAll(base, opts);

    // Each conventional scheduler is one independent simulation of
    // the same mix; fan them out across the pool (rows stay in the
    // canonical order by index).
    const std::vector<SchedulerKind> kinds{
        SchedulerKind::Frfcfs, SchedulerKind::FairQueue,
        SchedulerKind::Atlas,  SchedulerKind::Tcm,
        SchedulerKind::Fst,    SchedulerKind::MemGuard,
        SchedulerKind::Mise};
    std::vector<ComparisonRow> rows =
        parallelMap(kinds.size(), [&](std::size_t i) {
            SystemConfig cfg = base;
            cfg.sched = kinds[i];
            const auto m = runMulti(cfg, alone, opts).metrics;
            return ComparisonRow{schedulerName(kinds[i]), m.savg,
                                 m.smax};
        });

    // MITTS offline, tuned separately for each objective.
    SystemConfig mitts_cfg = base;
    mitts_cfg.gate = GateKind::Mitts;
    OfflineTunerOptions topts;
    // Evaluations of 8-program systems cost ~2x 4-program ones on a
    // serial host; trim the GA budget accordingly.
    topts.ga = base.apps.size() > 4 ? gaConfig(10, 5)
                                    : gaConfig(12, 6);
    topts.run = opts;
    for (auto obj : {Objective::Throughput, Objective::Fairness}) {
        const auto tuned =
            tuneMultiProgram(mitts_cfg, alone, obj, 0, topts);
        rows.push_back({std::string("MITTS-off(") +
                            objectiveName(obj) + ")",
                        tuned.metrics.savg, tuned.metrics.smax});
    }

    if (include_online) {
        // Online GA: search in-situ (noisy epoch measurements,
        // modelled software overhead), evaluate the winner from cold
        // — the paper's 200M-cycle runs amortize CONFIG_PHASE to a
        // sliver, which a fixed-length config phase inside our short
        // runs would not (see EXPERIMENTS.md).
        for (auto obj :
             {Objective::Throughput, Objective::Fairness}) {
            System sys(mitts_cfg);
            OnlineTunerOptions oo;
            oo.epochLength = 5'000;
            oo.population = 8;
            oo.generations = 4;
            oo.objective = obj;
            OnlineTuner tuner(sys, oo);
            sys.sim().add(&tuner);
            sys.sim().runUntil(
                [&tuner] { return tuner.inRunPhase(); },
                opts.maxCycles);
            SystemConfig found = mitts_cfg;
            found.mittsConfigs = tuner.bestConfigs();
            const auto m = runMulti(found, alone, opts).metrics;
            rows.push_back({std::string("MITTS-on(") +
                                objectiveName(obj) + ")",
                            m.savg, m.smax});
        }

        // Phase-based online reconfiguration is implemented
        // (OnlineTunerOptions::phaseLength; see the online_autotuner
        // example) but at this bench's scaled run lengths the
        // periodic CONFIG_PHASE cost swamps its small gain, so no
        // separate row is reported (EXPERIMENTS.md).
    }
    return rows;
}

void
reportComparison(const std::vector<ComparisonRow> &rows)
{
    double best_conv_savg = 0.0, best_conv_smax = 0.0;
    double best_mitts_savg = 0.0, best_mitts_smax = 0.0;
    std::printf("%-24s %10s %10s\n", "scheduler", "S_avg", "S_max");
    for (const auto &r : rows) {
        std::printf("%-24s %10.3f %10.3f\n", r.name.c_str(), r.savg,
                    r.smax);
        const bool is_mitts = r.name.rfind("MITTS", 0) == 0;
        auto &savg = is_mitts ? best_mitts_savg : best_conv_savg;
        auto &smax = is_mitts ? best_mitts_smax : best_conv_smax;
        if (savg == 0.0 || r.savg < savg)
            savg = r.savg;
        if (smax == 0.0 || r.smax < smax)
            smax = r.smax;
    }
    std::printf("MITTS vs best conventional: throughput %+0.1f%%, "
                "fairness %+0.1f%% (positive = MITTS better)\n",
                100.0 * (best_conv_savg / best_mitts_savg - 1.0),
                100.0 * (best_conv_smax / best_mitts_smax - 1.0));
    std::fflush(stdout);
}

} // namespace mitts::bench

/**
 * @file
 * Figure 14: MISE alone vs MITTS alone vs the MISE+MITTS hybrid
 * (per-core shapers over an intelligent centralized controller),
 * eight-program workloads.
 *
 * Expected shape (paper): the hybrid adds roughly 4% throughput and
 * 5% fairness over MITTS alone — MITTS complements centralized
 * scheduling rather than replacing it.
 */

#include "bench_common.hh"
#include "system/metrics.hh"
#include "trace/app_profile.hh"

using namespace mitts;

int
main()
{
    const auto opts = bench::runOptions(150'000);
    std::vector<double> savg_gain, smax_gain;

    for (unsigned wl = 4; wl <= 6; ++wl) {
        bench::header("Figure 14: workload " + std::to_string(wl));
        SystemConfig base =
            SystemConfig::multiProgram(workloadApps(wl));
        base.seed = 1400 + wl;
        const auto alone = aloneCyclesForAll(base, opts);

        // MISE only.
        SystemConfig mise_cfg = base;
        mise_cfg.sched = SchedulerKind::Mise;
        const auto mise_m = runMulti(mise_cfg, alone, opts).metrics;

        // MITTS only (offline GA over FR-FCFS).
        SystemConfig mitts_cfg = base;
        mitts_cfg.gate = GateKind::Mitts;
        OfflineTunerOptions topts;
        topts.ga = bench::gaConfig(10, 5);
        topts.run = opts;
        const auto mitts_res = tuneMultiProgram(
            mitts_cfg, alone, Objective::Throughput, 0, topts);

        // Hybrid: the tuner searches bins over a MISE controller.
        SystemConfig hybrid_cfg = mitts_cfg;
        hybrid_cfg.sched = SchedulerKind::Mise;
        const auto hybrid_res = tuneMultiProgram(
            hybrid_cfg, alone, Objective::Throughput, 0, topts);

        std::printf("%-12s %10s %10s\n", "config", "S_avg", "S_max");
        std::printf("%-12s %10.3f %10.3f\n", "MISE", mise_m.savg,
                    mise_m.smax);
        std::printf("%-12s %10.3f %10.3f\n", "MITTS",
                    mitts_res.metrics.savg, mitts_res.metrics.smax);
        std::printf("%-12s %10.3f %10.3f\n", "MISE+MITTS",
                    hybrid_res.metrics.savg,
                    hybrid_res.metrics.smax);

        savg_gain.push_back(mitts_res.metrics.savg /
                            hybrid_res.metrics.savg);
        smax_gain.push_back(mitts_res.metrics.smax /
                            hybrid_res.metrics.smax);
    }

    std::printf("\nhybrid over MITTS-only: throughput %+0.1f%%, "
                "fairness %+0.1f%% (paper: ~+4%% / ~+5%%)\n",
                100.0 * (geomean(savg_gain) - 1.0),
                100.0 * (geomean(smax_gain) - 1.0));
    return 0;
}

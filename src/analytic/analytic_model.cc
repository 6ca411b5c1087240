#include "analytic/analytic_model.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "analytic/demand.hh"
#include "analytic/md1.hh"
#include "analytic/shaper_curve.hh"
#include "base/logging.hh"

namespace mitts::analytic
{

namespace
{

/** One core's solver state. */
struct CoreState
{
    unsigned app = 0;
    AppDemand demand;       ///< per-core rates (shared by threads)
    double gateRate = 0.0;  ///< shaped admission cap, blocks/cycle
    bool gated = false;
    double lambda = 0.0;    ///< demand-read rate, blocks/cycle
    double cpi = 0.0;
    double memLatency = 0.0;
    double gateWait = 0.0;
};

const AppProfile &
profileOf(const SystemConfig &cfg, unsigned app)
{
    return cfg.customProfiles.empty()
               ? appProfile(cfg.apps[app])
               : cfg.customProfiles[app];
}

/** Memory-level parallelism an OoO window can sustain for a miss
 *  stream of `per_instr` misses per instruction. */
double
mlpFor(double per_instr, const CoreConfig &core, unsigned mshrs)
{
    const double in_window =
        per_instr * static_cast<double>(core.windowSize);
    return std::clamp(in_window, 1.0, static_cast<double>(mshrs));
}

/** Fixed per-request path cycles outside gate/bus queueing. */
double
pathOverhead(const SystemConfig &cfg)
{
    double path = 1.0 + static_cast<double>(cfg.llc.fillToL1Latency);
    if (cfg.noc.enabled) {
        // Mean round trip over the mesh: half the max Manhattan
        // distance each way.
        const double hops =
            static_cast<double>(cfg.noc.width + cfg.noc.height) / 2.0;
        path += 2.0 * hops * static_cast<double>(cfg.noc.hopLatency);
    }
    return path;
}

/** Shaped admission rates per core (infinity when ungated). */
std::vector<double>
gateRates(const SystemConfig &cfg,
          const std::vector<unsigned> &app_of_core)
{
    const auto n = app_of_core.size();
    std::vector<double> rates(
        n, std::numeric_limits<double>::infinity());
    if (cfg.gate == GateKind::Mitts) {
        for (std::size_t c = 0; c < n; ++c) {
            const BinConfig bc =
                c < cfg.mittsConfigs.size()
                    ? cfg.mittsConfigs[c]
                    : BinConfig::uniform(cfg.binSpec,
                                         cfg.binSpec.maxCredits);
            // Congestion feedback only ever scales credits down, so
            // the configured ceiling stays a valid model input.
            rates[c] = shaperCurve(bc).sustainedRate;
        }
        if (cfg.sharedShaperPerApp) {
            // All threads of an app share one shaper configured from
            // its first core; split its rate evenly.
            std::size_t c = 0;
            while (c < n) {
                std::size_t end = c;
                while (end < n &&
                       app_of_core[end] == app_of_core[c])
                    ++end;
                const double share =
                    rates[c] / static_cast<double>(end - c);
                for (std::size_t i = c; i < end; ++i)
                    rates[i] = share;
                c = end;
            }
        }
    } else if (cfg.gate == GateKind::Static) {
        for (std::size_t c = 0; c < n; ++c) {
            const double interval =
                c < cfg.staticIntervals.size()
                    ? cfg.staticIntervals[c]
                    : 0.0;
            if (interval > 0.0)
                rates[c] = 1.0 / interval;
        }
    }
    return rates;
}

struct SolveResult
{
    std::vector<CoreState> cores;
    double busUtilization = 0.0;
    unsigned iterations = 0;
};

/**
 * Damped fixed point over per-core request rates: rates set bus
 * utilization, utilization sets latency, latency sets CPI, CPI sets
 * rates. Sequential and allocation-free per iteration, so the result
 * is bit-identical for any thread count.
 */
SolveResult
solve(const SystemConfig &cfg, std::vector<CoreState> cores,
      const AnalyticOptions &opts)
{
    const DramConfig &dram = cfg.dram;
    const double refresh_duty =
        dram.refreshEnabled && dram.tREFI > 0
            ? static_cast<double>(dram.tRFC) /
                  static_cast<double>(dram.tREFI)
            : 0.0;
    // Effective per-block bus service, derated for refresh.
    const double bus_service =
        static_cast<double>(dram.tBURST) / (1.0 - refresh_duty);
    const double channels =
        static_cast<double>(std::max(1u, cfg.mc.numChannels));
    const double path = pathOverhead(cfg);
    const double llc_hit_latency =
        static_cast<double>(cfg.llc.hitLatency +
                            cfg.llc.fillToL1Latency);
    const double base_cpi = 1.0 / cfg.core.nonMemIpc;

    // Start every core at its unloaded request rate.
    for (auto &c : cores) {
        c.cpi = base_cpi + c.demand.idleCyclesPerInstr;
        c.lambda = c.demand.dramReadPerInstr / c.cpi;
    }

    SolveResult out;
    double rho = 0.0;
    for (unsigned it = 0; it < opts.maxIterations; ++it) {
        ++out.iterations;
        double offered = 0.0;
        for (const auto &c : cores) {
            // Writebacks ride along at writebackPerInstr per
            // dramReadPerInstr (their ratio is the write fraction).
            const double wb_ratio =
                c.demand.dramReadPerInstr > 0.0
                    ? c.demand.writebackPerInstr /
                          c.demand.dramReadPerInstr
                    : 0.0;
            offered += c.lambda * (1.0 + wb_ratio);
        }
        const double per_channel = offered / channels;
        rho = utilization(per_channel, bus_service);
        const double bus_wait = md1Wait(per_channel, bus_service);

        for (auto &c : cores) {
            // Bank timing beyond the bus: a row miss pays
            // precharge + activate before its CAS.
            const double row_miss_extra =
                (1.0 - c.demand.rowHitFraction) *
                static_cast<double>(dram.tRP + dram.tRCD);
            c.memLatency = bus_wait +
                           static_cast<double>(dram.tCL +
                                               dram.tBURST) +
                           row_miss_extra + path;
            c.gateWait =
                c.gated ? md1Wait(c.lambda, 1.0 / c.gateRate) : 0.0;

            const double mlp_mem =
                mlpFor(c.demand.dramReadPerInstr, cfg.core,
                       cfg.l1.mshrs);
            const double mlp_llc =
                mlpFor(c.demand.l1MissPerInstr, cfg.core,
                       cfg.l1.mshrs);
            const double cpi =
                base_cpi + c.demand.idleCyclesPerInstr +
                c.demand.llcHitPerInstr * llc_hit_latency / mlp_llc +
                c.demand.dramReadPerInstr *
                    (c.memLatency + c.gateWait) / mlp_mem;

            double target = c.demand.dramReadPerInstr / cpi;
            if (c.gated)
                target = std::min(target, c.gateRate * kRhoCap);
            c.lambda += opts.damping * (target - c.lambda);
            c.cpi = cpi;
        }
    }
    out.busUtilization = rho;
    out.cores = std::move(cores);
    return out;
}

/** Build per-core solver states for a config. */
std::vector<CoreState>
buildCores(const SystemConfig &cfg, bool alone_semantics)
{
    std::vector<unsigned> app_of_core;
    unsigned total_cores = 0;
    for (unsigned a = 0; a < cfg.apps.size(); ++a) {
        const unsigned threads =
            std::max(1u, profileOf(cfg, a).numThreads);
        for (unsigned t = 0; t < threads; ++t)
            app_of_core.push_back(a);
        total_cores += threads;
    }

    const std::size_t llc_share =
        cfg.llc.sizeBytes / std::max(1u, total_cores);
    const auto rates = alone_semantics
                           ? std::vector<double>()
                           : gateRates(cfg, app_of_core);

    std::vector<CoreState> cores;
    for (std::size_t c = 0; c < app_of_core.size(); ++c) {
        CoreState s;
        s.app = app_of_core[c];
        s.demand = deriveDemand(profileOf(cfg, s.app),
                                cfg.l1.sizeBytes, llc_share);
        if (!alone_semantics &&
            std::isfinite(rates[c]) && rates[c] > 0.0) {
            s.gated = true;
            s.gateRate = rates[c];
        }
        cores.push_back(std::move(s));
    }
    return cores;
}

/** Alone-run CPI per app: single app, no gate, full LLC — the
 *  analytical mirror of runner.cc runAlone(). */
std::vector<double>
aloneCpis(const SystemConfig &cfg, const AnalyticOptions &opts)
{
    std::vector<double> out;
    for (unsigned a = 0; a < cfg.apps.size(); ++a) {
        SystemConfig alone = cfg;
        alone.apps = {cfg.apps[a]};
        if (!cfg.customProfiles.empty())
            alone.customProfiles = {cfg.customProfiles[a]};
        alone.gate = GateKind::None;
        alone.sched = SchedulerKind::Frfcfs;
        alone.mittsConfigs.clear();
        alone.staticIntervals.clear();

        auto cores = buildCores(alone, true);
        const auto solved = solve(alone, std::move(cores), opts);
        // Threads of one app share its demand profile; their CPIs
        // agree, so the first core is representative.
        out.push_back(solved.cores.front().cpi);
    }
    return out;
}

MultiProgramMetrics
metricsFromSlowdowns(std::vector<double> slowdowns)
{
    MultiProgramMetrics m;
    m.slowdowns = std::move(slowdowns);
    double sum = 0.0;
    for (double s : m.slowdowns) {
        sum += s;
        m.smax = std::max(m.smax, s);
        m.weightedSpeedup += 1.0 / s;
    }
    const auto n = static_cast<double>(m.slowdowns.size());
    m.savg = n > 0.0 ? sum / n : 0.0;
    m.harmonicSpeedup = sum > 0.0 ? n / sum : 0.0;
    return m;
}

} // namespace

AnalyticResult
AnalyticModel::evaluate(const SystemConfig &cfg) const
{
    MITTS_ASSERT(!cfg.apps.empty(), "analytic model needs apps");
    MITTS_ASSERT(cfg.customProfiles.empty() ||
                     cfg.customProfiles.size() == cfg.apps.size(),
                 "customProfiles must parallel apps");

    const auto solved = solve(cfg, buildCores(cfg, false), opts_);
    const auto alone = aloneCpis(cfg, opts_);

    AnalyticResult res;
    res.busUtilization = solved.busUtilization;
    res.iterations = solved.iterations;

    // Aggregate cores into apps.
    std::vector<double> slowdowns;
    for (unsigned a = 0; a < cfg.apps.size(); ++a) {
        AnalyticAppResult app;
        app.name = cfg.apps[a];
        double lat_weight = 0.0, gate_weight = 0.0, cpi_sum = 0.0;
        unsigned cores = 0;
        for (const auto &c : solved.cores) {
            if (c.app != a)
                continue;
            ++cores;
            app.requestRate += c.lambda;
            lat_weight += (c.memLatency + c.gateWait) * c.lambda;
            gate_weight += c.gateWait * c.lambda;
            cpi_sum += c.cpi;
        }
        app.cores = cores;
        app.bandwidthGBps = app.requestRate *
                            static_cast<double>(kBlockBytes) *
                            cfg.cpuGhz;
        if (app.requestRate > 0.0) {
            app.meanLatencyCycles = lat_weight / app.requestRate;
            app.gateWaitCycles = gate_weight / app.requestRate;
        }
        app.cpi = cpi_sum / std::max(1u, cores);
        app.aloneCpi = alone[a];
        app.slowdown =
            alone[a] > 0.0 ? app.cpi / alone[a] : 1.0;
        // CPI ratios below 1 mean the model found the shared run no
        // worse than alone; clamp like the simulator's metric (a
        // shared run cannot beat its alone baseline in this model).
        app.slowdown = std::max(1.0, app.slowdown);

        // Network-calculus bounds under a fair bus share (see hh).
        const double fair_rate =
            (1.0 / static_cast<double>(cfg.dram.tBURST)) *
            static_cast<double>(std::max(1u, cfg.mc.numChannels)) /
            static_cast<double>(cfg.apps.size());
        double burst = 1.0;
        if (cfg.gate == GateKind::Mitts) {
            burst = 0.0;
            unsigned core_base = 0;
            for (unsigned b = 0; b < a; ++b)
                core_base +=
                    std::max(1u, profileOf(cfg, b).numThreads);
            for (unsigned t = 0; t < cores; ++t) {
                const unsigned c = core_base + t;
                const BinConfig bc =
                    c < cfg.mittsConfigs.size()
                        ? cfg.mittsConfigs[c]
                        : BinConfig::uniform(cfg.binSpec,
                                             cfg.binSpec.maxCredits);
                burst += shaperCurve(bc).burst;
            }
        }
        const double service_lag = static_cast<double>(
            cfg.dram.tRP + cfg.dram.tRCD + cfg.dram.tCL +
            cfg.dram.tBURST);
        if (app.requestRate < fair_rate) {
            app.delayBoundCycles =
                service_lag + burst / fair_rate;
            app.backlogBoundBlocks =
                burst + app.requestRate * service_lag;
        } else {
            app.delayBoundCycles =
                std::numeric_limits<double>::infinity();
            app.backlogBoundBlocks =
                std::numeric_limits<double>::infinity();
        }

        slowdowns.push_back(app.slowdown);
        res.apps.push_back(std::move(app));
    }
    res.metrics = metricsFromSlowdowns(std::move(slowdowns));
    return res;
}

AnalyticModel::Context
AnalyticModel::makeContext(const SystemConfig &cfg) const
{
    Context ctx;
    ctx.base = cfg;
    ctx.aloneCpi = aloneCpis(cfg, opts_);
    return ctx;
}

MultiProgramMetrics
AnalyticModel::metricsFor(const Context &ctx,
                          const SystemConfig &cfg) const
{
    const auto solved = solve(cfg, buildCores(cfg, false), opts_);
    std::vector<double> slowdowns;
    for (unsigned a = 0; a < cfg.apps.size(); ++a) {
        double cpi_sum = 0.0;
        unsigned cores = 0;
        for (const auto &c : solved.cores) {
            if (c.app == a) {
                cpi_sum += c.cpi;
                ++cores;
            }
        }
        const double cpi = cpi_sum / std::max(1u, cores);
        slowdowns.push_back(std::max(
            1.0, ctx.aloneCpi[a] > 0.0 ? cpi / ctx.aloneCpi[a]
                                       : 1.0));
    }
    return metricsFromSlowdowns(std::move(slowdowns));
}

void
printReport(std::FILE *out, const AnalyticResult &res)
{
    std::fprintf(out, "%-14s %6s %10s %12s %10s\n", "app", "cores", "GB/s",
                 "latency", "slowdown");
    for (const auto &a : res.apps)
        std::fprintf(out, "%-14s %6u %10.4f %12.2f %10.4f\n", a.name.c_str(),
                     a.cores, a.bandwidthGBps, a.meanLatencyCycles,
                     a.slowdown);
    std::fprintf(out, "S_avg=%.4f S_max=%.4f bus=%.3f iters=%u\n",
                 res.metrics.savg, res.metrics.smax, res.busUtilization,
                 res.iterations);
}

} // namespace mitts::analytic

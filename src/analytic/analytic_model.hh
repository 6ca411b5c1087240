/**
 * @file
 * Analytical fast-model tier: predict per-app bandwidth, mean memory
 * latency and slowdown for a SystemConfig without simulating a single
 * cycle (ROADMAP item 2; modeled on MD1MemRouter, SNIPPETS.md).
 *
 * The memory path is a chain of two queueing stations per core —
 * the source gate (MITTS bins or static token bucket, service
 * 1/shaped-rate) and the shared DRAM data bus (service tBURST,
 * derated by the refresh duty cycle) — closed through a CPI model:
 * a core's request rate is its per-instruction demand divided by its
 * CPI, and its CPI in turn depends on the memory latency those
 * requests see. evaluate() solves that fixed point with damped
 * iteration; everything is straight-line double arithmetic, so the
 * result is deterministic, thread-count-independent and ~10^4-10^5x
 * cheaper than a cycle-accurate run.
 *
 * Slowdowns divide the shared-run CPI by an alone-run CPI computed
 * from the same model with the gate removed and the full LLC — the
 * analytical mirror of runner.cc's runAlone() semantics — so the
 * returned MultiProgramMetrics struct is directly comparable to
 * cycle-accurate computeMetrics() output.
 */

#ifndef MITTS_ANALYTIC_ANALYTIC_MODEL_HH
#define MITTS_ANALYTIC_ANALYTIC_MODEL_HH

#include <cstdio>
#include <string>
#include <vector>

#include "analytic/envelope.hh"
#include "system/config.hh"
#include "system/metrics.hh"

namespace mitts::analytic
{

struct AnalyticOptions
{
    unsigned maxIterations = 64;
    double damping = 0.5; ///< fixed-point relaxation factor
};

/** Model outputs for one application. */
struct AnalyticAppResult
{
    std::string name;
    unsigned cores = 1;
    double requestRate = 0.0;   ///< demand blocks/cycle (all cores)
    double bandwidthGBps = 0.0; ///< requestRate in GB/s
    double meanLatencyCycles = 0.0; ///< L1 miss to fill, loaded
    double gateWaitCycles = 0.0;    ///< of which: shaper queueing
    double cpi = 0.0;
    double aloneCpi = 0.0;
    double slowdown = 1.0;
    /** Network-calculus delay bound through gate + bus under a
     *  fair-share service assumption (informational: FR-FCFS grants
     *  no hard per-app rate, see DESIGN.md). Infinite when the
     *  arrival rate exceeds the assumed share. */
    double delayBoundCycles = 0.0;
    double backlogBoundBlocks = 0.0;
};

struct AnalyticResult
{
    std::vector<AnalyticAppResult> apps;
    /** Same struct cycle-accurate runs report (metrics.hh). */
    MultiProgramMetrics metrics;
    double busUtilization = 0.0;
    unsigned iterations = 0;
};

/** The analytic backend's text report: one row per app (cores,
 *  GB/s, loaded latency, slowdown), then the shared-run metrics. */
void printReport(std::FILE *out, const AnalyticResult &res);

class AnalyticModel
{
  public:
    explicit AnalyticModel(const AnalyticOptions &opts = {})
        : opts_(opts)
    {
    }

    /** Evaluate a full system configuration. Pure function of cfg. */
    AnalyticResult evaluate(const SystemConfig &cfg) const;

    /** Precomputed per-app alone baselines for the tuner fast path
     *  (one model solve per candidate instead of one per app). */
    struct Context
    {
        SystemConfig base;
        std::vector<double> aloneCpi; ///< per app
    };

    /**
     * Tuner fast path: S_avg / S_max prediction for a candidate
     * per-core shaper assignment, with the per-app demand and alone
     * CPIs precomputed once via makeContext().
     */
    Context makeContext(const SystemConfig &cfg) const;
    /** Metrics for `cfg`'s gate configs against a shared context. */
    MultiProgramMetrics metricsFor(const Context &ctx,
                                   const SystemConfig &cfg) const;

  private:
    AnalyticOptions opts_;
};

} // namespace mitts::analytic

#endif // MITTS_ANALYTIC_ANALYTIC_MODEL_HH

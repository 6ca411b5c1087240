/**
 * @file
 * Shared helpers for the per-figure experiment harnesses.
 *
 * Every bench prints the same rows/series the paper reports. Run
 * lengths and GA budgets are scaled down from the paper's 200M-cycle
 * runs so the whole suite finishes in minutes; set MITTS_BENCH_SCALE
 * (default 1, higher = longer runs) to increase fidelity, and
 * MITTS_THREADS to parallelize the independent simulations inside a
 * section. Results are bit-identical for any thread count, and so is
 * a bench's whole stdout. Host speed is measured by mitts_bench
 * (mitts_bench/README.md), not here.
 */

#ifndef MITTS_BENCH_BENCH_COMMON_HH
#define MITTS_BENCH_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "system/runner.hh"
#include "tuner/offline_tuner.hh"

namespace mitts::bench
{

/** Scale factor from the environment (MITTS_BENCH_SCALE). */
unsigned scale();

/** Standard run options scaled for bench use. */
RunnerOptions runOptions(std::uint64_t base_target = 30'000);

/** Small GA budget for bench use (population x generations). */
GaConfig gaConfig(unsigned population = 10, unsigned generations = 6);

/** Print a section header. */
void header(const std::string &title);

/**
 * Absolute path for a BENCH_*.json results file. Benches run from
 * the build tree, but the perf trajectory is committed at the repo
 * root, so results resolve against MITTS_REPO_ROOT (baked in by the
 * build; overridable with the MITTS_BENCH_OUT_DIR environment
 * variable, e.g. for CI scratch space).
 */
std::string jsonPath(const std::string &filename);

/** Print one row: label + columns. */
void row(const std::string &label,
         const std::vector<std::pair<std::string, double>> &cols);

/** One scheduler-comparison entry (Figs. 12/13/15). */
struct ComparisonRow
{
    std::string name;
    double savg = 0.0;
    double smax = 0.0;
};

/**
 * The paper's scheduler comparison (Figs. 12, 13, 15): run one
 * Table III workload under every conventional scheduler, then under
 * MITTS tuned offline and online for throughput and fairness, and
 * report S_avg/S_max for each. Every scheduler runs with its default
 * periods (see DESIGN.md "Run-length scaling").
 *
 * @param include_online  also run the (slower) online-GA variants
 */
std::vector<ComparisonRow>
schedulerComparison(unsigned workload, std::size_t llc_bytes,
                    const RunnerOptions &opts, bool include_online);

/** Print comparison rows and the MITTS-vs-best-conventional gains. */
void reportComparison(const std::vector<ComparisonRow> &rows);

} // namespace mitts::bench

#endif // MITTS_BENCH_BENCH_COMMON_HH

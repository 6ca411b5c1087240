/**
 * @file
 * The benchmark's four workloads. Every input is generated in code
 * from the seed; nothing is read from scenarios/ or sweeps/.
 *
 * A rep and a traced pass each run in a forked child and report back
 * through a Record: named lists of numbers plus named text fields,
 * serialized one per line over a pipe.
 */

#ifndef MITTS_BENCH_WORKLOADS_HH
#define MITTS_BENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mitts_bench
{

/** Named numeric lists and text fields; a rep's or pass's report. */
class Record
{
  public:
    void add(const std::string &key, double v) { nums_[key].push_back(v); }
    void set(const std::string &key, double v) { nums_[key] = {v}; }
    void setText(const std::string &key, std::string v)
    {
        texts_[key] = std::move(v);
    }

    /** First value of `key`, or `fallback` when absent. */
    double num(const std::string &key, double fallback = 0.0) const;
    const std::vector<double> &nums(const std::string &key) const;
    std::string text(const std::string &key) const;
    bool hasNum(const std::string &key) const
    {
        return nums_.count(key) != 0;
    }

    /** A failed check: the first reason is kept. */
    void fail(const std::string &reason)
    {
        if (text("failure").empty())
            setText("failure", reason);
    }
    bool failed() const { return !text("failure").empty(); }

    std::string serialize() const;
    /** Inverse of serialize(); malformed lines are dropped. */
    static Record parse(const std::string &text);

  private:
    std::map<std::string, std::vector<double>> nums_;
    std::map<std::string, std::string> texts_;
};

/** What a rep or traced pass needs besides the seed. */
struct Params
{
    std::uint64_t seed = 1;
    /** ~1/50 of every workload's size (the smoke test). */
    bool smoke = false;
    /** Private scratch directory for this rep (created, then
     *  removed by the caller). */
    std::string scratch;
    /** Directory for artefacts that outlive the rep (traces). */
    std::string outDir;
    /** This binary, exec'd as `--worker` by the sweep farm. */
    std::string selfExe;
    /** Sweep worker processes for fig12. */
    unsigned workers = 1;
};

/** A workload; why each exists is recorded in BENCHMARK.json and
 *  README.md. */
struct Workload
{
    const char *name;
    /** Runs in one process (and so can be pinned to one CPU); fig12
     *  forks sweep workers across the host's CPUs. */
    bool singleProcess;
    /** One timed rep. Fills the end-to-end samples (wall_s, setup_s,
     *  ckpt_save_ms, ckpt_restore_ms, window_ms, ops), `digest`, and
     *  `failure` when an output check fails. */
    Record (*rep)(const Params &);
    /** The traced pass: per-layer metrics (`layer.<name>`), the
     *  Chrome trace, and the skip / no-skip / traced equality gate. */
    Record (*traced)(const Params &);
};

const std::vector<Workload> &workloads();

/** Per-layer metrics every traced pass reports, with units. A metric
 *  is `deterministic` when it is a simulated quantity or a work count
 *  that must repeat exactly for a given seed. */
struct LayerMetric
{
    const char *name;
    const char *unit;
    bool deterministic;
};

const std::vector<LayerMetric> &layerMetrics();

/** FNV-1a 64-bit, as 16 hex digits. */
std::string fnv1aHex(const std::string &bytes);

} // namespace mitts_bench

#endif // MITTS_BENCH_WORKLOADS_HH

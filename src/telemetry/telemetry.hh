/**
 * @file
 * The telemetry hub: one ProbeRegistry + one TimeSeriesSampler +
 * (optionally) one TraceEventWriter, with file plumbing.
 *
 * Dataflow: components register probes (and emit trace events) ->
 * the sampler snapshots probes every N cycles into its ring ->
 * finalize() flushes the windowed CSV and writes the trace JSON.
 *
 * Overhead contract: a system built without telemetry holds null
 * writer pointers in every component; the entire instrumentation
 * reduces to inlined null checks on paths that were already
 * branch-heavy, and no sampler is ticked. Telemetry never mutates
 * simulated state, so enabling it cannot change simulation results.
 */

#ifndef MITTS_TELEMETRY_TELEMETRY_HH
#define MITTS_TELEMETRY_TELEMETRY_HH

#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "telemetry/probe.hh"
#include "telemetry/sampler.hh"
#include "telemetry/trace_writer.hh"

namespace mitts::telemetry
{

struct TelemetryOptions
{
    bool enabled = false;
    /** Output directory (created on demand). Empty = keep everything
     *  in memory (tests, overhead measurement). */
    std::string outDir;
    Tick sampleInterval = 10'000;
    bool traceEvents = false;
    std::size_t ringWindows = 256;
    std::size_t maxTraceEvents = 1 << 20;
};

class Telemetry
{
  public:
    Telemetry(const TelemetryOptions &opts, double cpu_ghz);
    ~Telemetry();

    Telemetry(const Telemetry &) = delete;
    Telemetry &operator=(const Telemetry &) = delete;

    ProbeRegistry &probes() { return registry_; }
    TimeSeriesSampler &sampler() { return *sampler_; }

    /** Null unless options.traceEvents. */
    TraceEventWriter *trace() { return trace_.get(); }

    /**
     * Flush the partial last window and write trace.json. Idempotent;
     * also invoked from the destructor as a safety net.
     */
    void finalize(Tick now);

    const TelemetryOptions &options() const { return opts_; }

    /** In-memory CSV text (only populated when outDir is empty). */
    std::string csvText() const { return memCsv_.str(); }

    /** Paths written by finalize (empty when outDir is empty). */
    const std::string &csvPath() const { return csvPath_; }
    const std::string &tracePath() const { return tracePath_; }

    /**
     * Checkpoint the full telemetry pipeline so a restored run
     * produces byte-identical outputs: the CSV text emitted so far
     * (read back from the file sink, or from the in-memory stream),
     * the sampler's ring/delta state and the buffered trace events.
     */
    void checkpoint(ckpt::Archive &a);

  private:
    TelemetryOptions opts_;
    // detlint-transient(probe registry wiring, re-registered on rebuild)
    ProbeRegistry registry_;
    std::ostringstream memCsv_;
    std::ofstream csvFile_;
    // derived output path fixed at construction
    std::string csvPath_;
    // detlint-transient(derived output path fixed at construction)
    std::string tracePath_;
    std::unique_ptr<TimeSeriesSampler> sampler_;
    std::unique_ptr<TraceEventWriter> trace_;
    // detlint-transient(end-of-run output latch; finalize() runs after the last checkpoint)
    bool finalized_ = false;
    // detlint-transient(end-of-run output latch; finalize() runs after the last checkpoint)
    Tick finalizedAt_ = 0;
};

} // namespace mitts::telemetry

#endif // MITTS_TELEMETRY_TELEMETRY_HH

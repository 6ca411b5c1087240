#include "telemetry/telemetry.hh"

#include <filesystem>
#include <sstream>

#include "base/logging.hh"
#include "ckpt/serialize.hh"

namespace mitts::telemetry
{

Telemetry::Telemetry(const TelemetryOptions &opts, double cpu_ghz)
    : opts_(opts)
{
    std::ostream *csv = &memCsv_;
    if (!opts_.outDir.empty()) {
        std::filesystem::create_directories(opts_.outDir);
        csvPath_ = (std::filesystem::path(opts_.outDir) /
                    "timeseries.csv")
                       .string();
        csvFile_.open(csvPath_, std::ios::trunc);
        if (!csvFile_)
            fatal("telemetry: cannot open ", csvPath_);
        csv = &csvFile_;
        tracePath_ = (std::filesystem::path(opts_.outDir) /
                      "trace.json")
                         .string();
    }

    SamplerOptions sopts;
    sopts.interval = opts_.sampleInterval;
    sopts.ringWindows = opts_.ringWindows;
    sampler_ =
        std::make_unique<TimeSeriesSampler>(registry_, sopts, csv);

    if (opts_.traceEvents) {
        TraceEventWriter::Options topts;
        topts.cpuGhz = cpu_ghz;
        topts.maxEvents = opts_.maxTraceEvents;
        trace_ = std::make_unique<TraceEventWriter>(topts);
    }
}

Telemetry::~Telemetry()
{
    // Safety net for callers that never reached finalize(); uses the
    // last known boundary so buffered windows are not lost.
    if (!finalized_)
        finalize(finalizedAt_);
}

void
Telemetry::finalize(Tick now)
{
    if (finalized_ && now <= finalizedAt_)
        return;
    finalized_ = true;
    finalizedAt_ = now;
    sampler_->finalize(now);
    if (trace_ && !tracePath_.empty()) {
        std::ofstream os(tracePath_, std::ios::trunc);
        if (!os)
            fatal("telemetry: cannot open ", tracePath_);
        trace_->write(os);
    }
}

void
Telemetry::checkpoint(ckpt::Archive &a)
{
    // CSV emitted so far. The file sink is read back from disk so the
    // hub never has to keep a shadow copy on the hot path; restore
    // replays it into the sink (the constructor truncated the file).
    std::string csv;
    if (a.saving() && opts_.outDir.empty()) {
        csv = memCsv_.str();
    } else if (a.saving()) {
        csvFile_.flush();
        std::ifstream in(csvPath_, std::ios::binary);
        if (!in)
            throw ckpt::Error("telemetry: cannot read back " +
                              csvPath_);
        std::ostringstream buf;
        buf << in.rdbuf();
        csv = buf.str();
    }
    a.str(csv);
    if (!a.saving() && opts_.outDir.empty()) {
        memCsv_.str(csv);
        memCsv_.seekp(0, std::ios::end);
    } else if (!a.saving()) {
        csvFile_ << csv;
        csvFile_.flush();
    }
    a.state(*sampler_);
    bool had_trace = trace_ != nullptr;
    a.b(had_trace);
    a.check(had_trace == (trace_ != nullptr),
            "telemetry trace-event configuration mismatch");
    if (trace_)
        a.state(*trace_);
}

} // namespace mitts::telemetry

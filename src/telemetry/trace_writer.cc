#include "telemetry/trace_writer.hh"

#include <iomanip>

#include "base/logging.hh"

namespace mitts::telemetry
{

TraceEventWriter::TraceEventWriter(const Options &opts) : opts_(opts)
{
    MITTS_ASSERT(opts.cpuGhz > 0, "trace writer needs a clock rate");
    events_.reserve(std::min<std::size_t>(opts.maxEvents, 4096));
}

int
TraceEventWriter::track(const std::string &name)
{
    tracks_.push_back(name);
    return static_cast<int>(tracks_.size() - 1);
}

double
TraceEventWriter::usOf(Tick t) const
{
    // cycles -> us at cpuGhz GHz: 1 us == ghz * 1000 cycles.
    return static_cast<double>(t) / (opts_.cpuGhz * 1000.0);
}

void
TraceEventWriter::duration(int track, const char *category,
                           const char *name, Tick begin, Tick end)
{
    if (events_.size() >= opts_.maxEvents) {
        ++dropped_;
        return;
    }
    events_.push_back(Event{track, true, category, name, begin, end});
}

void
TraceEventWriter::instant(int track, const char *category,
                          const char *name, Tick at)
{
    if (events_.size() >= opts_.maxEvents) {
        ++dropped_;
        return;
    }
    events_.push_back(Event{track, false, category, name, at, at});
}

void
TraceEventWriter::write(std::ostream &os) const
{
    os << "{\"traceEvents\":[";
    bool first = true;
    for (std::size_t i = 0; i < tracks_.size(); ++i) {
        os << (first ? "" : ",")
           << "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
              "\"tid\":" << i << ",\"args\":{\"name\":\""
           << tracks_[i] << "\"}}";
        first = false;
    }
    const auto flags = os.flags();
    os << std::fixed << std::setprecision(4);
    for (const Event &e : events_) {
        os << (first ? "" : ",") << "\n{\"name\":\"" << e.name
           << "\",\"cat\":\"" << e.category << "\",\"ph\":\""
           << (e.isDuration ? "X" : "i") << "\",\"pid\":0,\"tid\":"
           << e.track << ",\"ts\":" << usOf(e.begin);
        if (e.isDuration)
            os << ",\"dur\":" << usOf(e.end - e.begin);
        else
            os << ",\"s\":\"t\"";
        os << "}";
        first = false;
    }
    os.flags(flags);
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

const char *
TraceEventWriter::intern(const std::string &s)
{
    return internPool_.insert(s).first->c_str();
}

void
TraceEventWriter::checkpoint(ckpt::Archive &a)
{
    // Tracks were re-registered by the rebuilt components; the saved
    // list must match so buffered event track ids stay valid.
    a.expect(tracks_.size(), "trace writer track count mismatch");
    for (const auto &t : tracks_) {
        std::string name = t;
        a.str(name);
        a.check(name == t, "trace writer track name mismatch");
    }
    a.seq(events_, [&](Event &e) {
        a.narrow(e.track, "trace event track");
        a.b(e.isDuration);
        std::string category = a.saving() ? e.category : "";
        std::string name = a.saving() ? e.name : "";
        a.str(category);
        a.str(name);
        if (!a.saving()) {
            e.category = intern(category);
            e.name = intern(name);
        }
        a.u64(e.begin);
        a.u64(e.end);
    });
    a.narrow(dropped_, "trace writer dropped count");
}

} // namespace mitts::telemetry

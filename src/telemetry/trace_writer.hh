/**
 * @file
 * Chrome trace-event JSON emitter (chrome://tracing / Perfetto).
 *
 * Components emit complete duration events ("ph":"X") for episodes —
 * core ROB-stall runs, shaper throttle intervals, tuner phases — and
 * instant events ("ph":"i") for point occurrences such as bin
 * replenishes and reconfigurations. Events are buffered in memory
 * (bounded; overflow is counted, not fatal) and serialized once at
 * finalize time.
 *
 * Timestamps are converted from CPU cycles to the format's
 * microseconds using the simulated clock frequency, so one simulated
 * second reads as one second in the viewer.
 */

#ifndef MITTS_TELEMETRY_TRACE_WRITER_HH
#define MITTS_TELEMETRY_TRACE_WRITER_HH

#include <cstdint>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "base/types.hh"
#include "ckpt/serialize.hh"

namespace mitts::telemetry
{

class TraceEventWriter : public ckpt::Serializable
{
  public:
    struct Options
    {
        double cpuGhz = 2.4;
        std::size_t maxEvents = 1 << 20;
    };

    explicit TraceEventWriter(const Options &opts);

    /**
     * Register a named track (a "thread" row in the viewer) and
     * return its id. Emits the thread_name metadata record.
     */
    int track(const std::string &name);

    /** Complete duration event covering [begin, end] cycles. */
    void duration(int track, const char *category,
                  const char *name, Tick begin, Tick end);

    /** Instant event at `at` cycles. */
    void instant(int track, const char *category, const char *name,
                 Tick at);

    /** Serialize everything as one JSON object. */
    void write(std::ostream &os) const;

    std::size_t events() const { return events_.size(); }
    std::size_t dropped() const { return dropped_; }

  protected:
    /** Checkpoint buffered events. Category/name literals are
     *  re-homed into an intern pool on restore (the original
     *  pointers belonged to the saving process). */
    void checkpoint(ckpt::Archive &a) override;

  private:
    struct Event
    {
        int track;
        bool isDuration;
        const char *category;
        const char *name;
        Tick begin;
        Tick end; ///< == begin for instants
    };

    double usOf(Tick t) const;

    const char *intern(const std::string &s);

    // detlint-transient(construction-time config; never mutated after build)
    Options opts_;
    std::vector<std::string> tracks_;
    std::vector<Event> events_;
    std::size_t dropped_ = 0;
    /** Stable storage for restored event strings (std::set nodes
     *  never move). */
    // string intern arena; rebuilt by intern() during restore
    std::set<std::string> internPool_;
};

} // namespace mitts::telemetry

#endif // MITTS_TELEMETRY_TRACE_WRITER_HH

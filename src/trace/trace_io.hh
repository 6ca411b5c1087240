/**
 * @file
 * Trace capture and replay.
 *
 * The paper's SSim supports both trace-driven and execution-driven
 * simulation; this gives the synthetic generators the same property:
 * record any TraceSource to a portable text file and replay it later
 * (bit-identical runs across machines, shareable workloads,
 * regression pinning).
 *
 * Format: one op per line, `gap isWrite dependsOnPrev addr`, after a
 * `mitts-trace-v1` header line.
 */

#ifndef MITTS_TRACE_TRACE_IO_HH
#define MITTS_TRACE_TRACE_IO_HH

#include <string>
#include <vector>

#include "trace/trace_source.hh"

namespace mitts
{

/** Capture `num_ops` operations from `source` into a file. */
void saveTrace(const std::string &path, TraceSource &source,
               std::size_t num_ops);

/** Load a previously saved trace into memory. fatal()s on a missing
 *  or malformed file. */
std::vector<TraceOp> loadTrace(const std::string &path);

/** TraceSource replaying a recorded file, looping at the end. */
class FileTrace : public TraceSource
{
  public:
    explicit FileTrace(const std::string &path)
        : ops_(loadTrace(path))
    {
    }

    explicit FileTrace(std::vector<TraceOp> ops)
        : ops_(std::move(ops))
    {
    }

    TraceOp
    next() override
    {
        const TraceOp op = ops_[idx_];
        idx_ = (idx_ + 1) % ops_.size();
        return op;
    }

    void reset() override { idx_ = 0; }

    std::size_t size() const { return ops_.size(); }

  protected:
    void
    checkpoint(ckpt::Archive &a) override
    {
        a.narrow(idx_, "file trace cursor");
        a.check(idx_ < ops_.size(), "file trace cursor out of range");
    }

  private:
    /** Trace content injected at construction; only the cursor is
     *  mutable. */
    std::vector<TraceOp> ops_;
    std::size_t idx_ = 0;
};

/**
 * Pass-through source that tees every op to an in-memory log (use
 * saveTrace afterwards, or inspect in tests).
 */
class RecordingTrace : public TraceSource
{
  public:
    explicit RecordingTrace(TraceSource &inner) : inner_(inner) {}

    TraceOp
    next() override
    {
        TraceOp op = inner_.next();
        log_.push_back(op);
        return op;
    }

    void
    reset() override
    {
        inner_.reset();
        log_.clear();
    }

    const std::vector<TraceOp> &log() const { return log_; }

  private:
    TraceSource &inner_;
    std::vector<TraceOp> log_;
};

} // namespace mitts

#endif // MITTS_TRACE_TRACE_IO_HH

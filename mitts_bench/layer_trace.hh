/**
 * @file
 * Host-time attribution from outside the simulator: a span recorder
 * plus timing decorators installed through the System's public
 * setters (L1/LLC gate and downstream, memory-controller scheduler,
 * SystemConfig::traceFactory).
 *
 * Spans nest on an in-bench stack; a layer's self time is its span
 * minus the spans of the calls it made into other layers. Timing is
 * sampled on one simulated cycle in kSamplePeriod: the cycle number is
 * the `now` every decorated call receives, so a sampled cycle times
 * every call it makes and an unsampled one times none, which keeps the
 * nesting consistent. Calls are counted on every cycle. Decorators
 * only forward, so the simulated state, and hence the stats dump, is
 * the same with and without them; the traced pass checks that.
 */

#ifndef MITTS_BENCH_LAYER_TRACE_HH
#define MITTS_BENCH_LAYER_TRACE_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/interfaces.hh"
#include "sched/mem_scheduler.hh"
#include "system/system.hh"
#include "trace/trace_source.hh"

namespace mitts_bench
{

using mitts::Tick;

/** The simulator modules host time is attributed to. `Cycle` is the
 *  root span of one sampled cycle of the bench's own loop; its self
 *  time is what no layer span covers (loop and clock overhead). */
enum class Layer : unsigned
{
    Cycle,
    Events, ///< sim: the event-queue drain
    Core,
    Trace,
    L1,
    Llc,
    Shaper,
    Sched,
    Memctrl,
    Count_,
};

constexpr unsigned kNumLayers = static_cast<unsigned>(Layer::Count_);
constexpr Tick kSamplePeriod = 16;

const char *layerName(Layer l);

/** Call counters, incremented on every cycle. */
struct CallCounts
{
    std::uint64_t traceOps = 0;
    std::uint64_t gateCalls = 0;    ///< tryIssue
    std::uint64_t gateAdmitted = 0; ///< tryIssue returned true
    std::uint64_t pickCalls = 0;
    std::uint64_t pickIssued = 0;   ///< pick returned >= 0
    std::uint64_t mcPushes = 0;     ///< LLC -> memory controller
};

class SpanRecorder
{
  public:
    /** Keep individual spans of the first `keep_cycles` sampled
     *  cycles for the Chrome trace. Calibrates the clock overhead a
     *  span adds (see leave()). */
    explicit SpanRecorder(std::size_t keep_cycles);

    static bool sampled(Tick now) { return now % kSamplePeriod == 0; }

    /** The cycle the bench's own loop is executing (read by calls
     *  that receive no cycle number, i.e. TraceSource::next). */
    Tick now() const { return now_; }
    void setNow(Tick now) { now_ = now; }

    void
    enter(Tick now)
    {
        if (!sampled(now))
            return;
        if (now != keptCycle_) {
            keptCycle_ = now;
            ++keptCycles_;
        }
        Frame &f = stack_[depth_++];
        f.childNs = 0;
        f.overheadNs = 0;
        f.startNs = clockNs();
    }

    /**
     * Close the innermost span. Reading the clock costs about as much
     * as the smallest spans (a trace op, a gate call), so the
     * calibrated cost is taken out: a span's own reads (`inNs_`) and
     * those of every span inside it are removed from its duration,
     * and each child span's reads outside the child's interval
     * (`outNs_`) are removed from the parent.
     */
    void
    leave(Layer l, Tick now)
    {
        if (!sampled(now))
            return;
        const std::int64_t end = clockNs();
        Frame &f = stack_[--depth_];
        const double overhead = inNs_ + f.overheadNs;
        const double dur = static_cast<double>(end - f.startNs) - overhead;
        selfNs_[static_cast<unsigned>(l)] += dur - f.childNs;
        if (depth_ > 0) {
            Frame &parent = stack_[depth_ - 1];
            parent.childNs += dur;
            parent.overheadNs += overhead + outNs_;
        }
        if (keptCycles_ <= keepCycles_)
            kept_.push_back({l, f.startNs, dur, now});
    }

    /** RAII span. */
    class Scope
    {
      public:
        Scope(SpanRecorder &r, Layer l, Tick now)
            : r_(r), l_(l), now_(now)
        {
            r_.enter(now_);
        }
        ~Scope() { r_.leave(l_, now_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder &r_;
        Layer l_;
        Tick now_;
    };

    CallCounts &counts() { return counts_; }
    const CallCounts &counts() const { return counts_; }
    /** Self nanoseconds per layer, summed over sampled cycles, with
     *  the clock overhead taken out. */
    const std::array<double, kNumLayers> &selfNs() const
    {
        return selfNs_;
    }

    /** Write the kept spans as Chrome trace-event JSON. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct NoCalibration
    {
    };
    explicit SpanRecorder(NoCalibration) : keepCycles_(0) {}
    void calibrate();

    static std::int64_t
    clockNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    struct Frame
    {
        std::int64_t startNs = 0;
        double childNs = 0;    ///< corrected durations of child spans
        double overheadNs = 0; ///< clock cost of child spans
    };

    struct Kept
    {
        Layer layer;
        std::int64_t startNs;
        double durNs;
        Tick cycle;
    };

    std::array<Frame, 16> stack_{};
    unsigned depth_ = 0;
    std::array<double, kNumLayers> selfNs_{};
    CallCounts counts_;
    Tick now_ = 0;
    double inNs_ = 0;
    double outNs_ = 0;
    std::size_t keepCycles_;
    std::size_t keptCycles_ = 0;
    Tick keptCycle_ = mitts::kTickNever;
    std::vector<Kept> kept_;
};

/** Times SourceGate calls (the MITTS shaper, or a scheduler's gate). */
class TimedGate final : public mitts::SourceGate
{
  public:
    TimedGate(mitts::SourceGate &inner, SpanRecorder &rec)
        : inner_(inner), rec_(rec)
    {
    }

    bool tryIssue(mitts::MemRequest &req, Tick now) override;
    void onLlcResponse(const mitts::MemRequest &req, bool hit,
                       Tick now) override;
    Tick nextIssueTick(Tick now) const override
    {
        return inner_.nextIssueTick(now);
    }
    void onSkippedStalls(Tick cycles) override
    {
        inner_.onSkippedStalls(cycles);
    }

  private:
    mitts::SourceGate &inner_;
    SpanRecorder &rec_;
};

/** Times pushes into a MemSink, attributing them to `layer`: the
 *  receiving module (the LLC for L1 misses, the memory controller
 *  for LLC misses). */
class TimedSink final : public mitts::MemSink
{
  public:
    TimedSink(mitts::MemSink &inner, SpanRecorder &rec, Layer layer)
        : inner_(inner), rec_(rec), layer_(layer)
    {
    }

    bool canAccept(const mitts::MemRequest &req) const override
    {
        return inner_.canAccept(req);
    }
    void push(mitts::ReqPtr req, Tick now) override;

  private:
    mitts::MemSink &inner_;
    SpanRecorder &rec_;
    Layer layer_;
};

/** Times every scheduler callback the memory controller makes. */
class TimedScheduler final : public mitts::MemScheduler
{
  public:
    TimedScheduler(mitts::MemScheduler &inner, SpanRecorder &rec)
        : inner_(inner), rec_(rec)
    {
    }

    std::string name() const override { return inner_.name(); }
    int pick(const mitts::TxnQueue &queue, const mitts::Dram &dram,
             Tick now) override;
    void onEnqueue(const mitts::MemRequest &req, Tick now) override;
    void onComplete(const mitts::MemRequest &req, Tick now) override;
    void tick(Tick now) override;
    Tick nextWakeTick(Tick now) const override
    {
        return inner_.nextWakeTick(now);
    }
    void setMonitor(const mitts::AppMonitor *mon) override
    {
        inner_.setMonitor(mon);
    }
    void saveState(mitts::ckpt::Writer &w) const override
    {
        inner_.saveState(w);
    }
    void loadState(mitts::ckpt::Reader &r) override
    {
        inner_.loadState(r);
    }

  private:
    mitts::MemScheduler &inner_;
    SpanRecorder &rec_;
};

/** Times TraceSource::next. Owns the wrapped source; installed
 *  through SystemConfig::traceFactory (installTracedTraceFactory). */
class TimedTrace final : public mitts::TraceSource
{
  public:
    TimedTrace(std::unique_ptr<mitts::TraceSource> inner,
               SpanRecorder &rec)
        : inner_(std::move(inner)), rec_(rec)
    {
    }

    mitts::TraceOp next() override;
    void reset() override { inner_->reset(); }
    void saveState(mitts::ckpt::Writer &w) const override
    {
        inner_->saveState(w);
    }
    void loadState(mitts::ckpt::Reader &r) override
    {
        inner_->loadState(r);
    }

  private:
    std::unique_ptr<mitts::TraceSource> inner_;
    SpanRecorder &rec_;
};

/** A traceFactory building the default SyntheticTrace wrapped in a
 *  TimedTrace, so the stream is the one System would build itself. */
void installTracedTraceFactory(mitts::SystemConfig &cfg,
                               SpanRecorder &rec);

/**
 * The decorators for one System, installed by the constructor through
 * the System's public setters. Gates are wrapped only where the System
 * installed one the bench can reach (MITTS shapers, static gates,
 * FST's gates); an ungated L1 stays ungated.
 */
class SystemDecorators
{
  public:
    SystemDecorators(mitts::System &sys, SpanRecorder &rec);

    SystemDecorators(const SystemDecorators &) = delete;
    SystemDecorators &operator=(const SystemDecorators &) = delete;

  private:
    std::vector<std::unique_ptr<TimedGate>> gates_;
    std::unique_ptr<TimedSink> toLlc_;
    std::unique_ptr<TimedSink> toMc_;
    std::unique_ptr<TimedScheduler> sched_;
};

/** True when runTracedLoop can drive a System built from `cfg`: no
 *  clocked component the System does not expose (MemGuard's
 *  controller, congestion feedback, the telemetry sampler). */
bool tracedLoopSupports(const mitts::SystemConfig &cfg);

/**
 * Drive a fresh `sys` for `cycles` with the bench's own no-skip loop,
 * in the System's tick order: event drain, cores, L1s, LLC, memory
 * controller, each in a span.
 */
void runTracedLoop(mitts::System &sys, SpanRecorder &rec, Tick cycles);

} // namespace mitts_bench

#endif // MITTS_BENCH_LAYER_TRACE_HH

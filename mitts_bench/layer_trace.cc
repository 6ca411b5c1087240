#include "layer_trace.hh"

#include <algorithm>
#include <cstdio>

#include "sched/fst.hh"
#include "trace/app_profile.hh"
#include "trace/synth_trace.hh"

namespace mitts_bench
{

using namespace mitts;

const char *
layerName(Layer l)
{
    switch (l) {
      case Layer::Cycle:
        return "bench.loop";
      case Layer::Events:
        return "sim.events";
      case Layer::Core:
        return "core";
      case Layer::Trace:
        return "trace";
      case Layer::L1:
        return "cache.l1";
      case Layer::Llc:
        return "cache.llc";
      case Layer::Shaper:
        return "shaper";
      case Layer::Sched:
        return "sched";
      case Layer::Memctrl:
        return "memctrl";
      case Layer::Count_:
        break;
    }
    return "?";
}

SpanRecorder::SpanRecorder(std::size_t keep_cycles)
    : keepCycles_(keep_cycles)
{
    kept_.reserve(keep_cycles * 32);
    calibrate();
}

void
SpanRecorder::calibrate()
{
    // Median over batches, so a preempted batch cannot skew it.
    constexpr int kBatches = 21, kSpans = 2000;
    auto per_span = [](auto &&body) {
        std::vector<double> batches;
        for (int b = 0; b < kBatches; ++b) {
            SpanRecorder r{NoCalibration{}};
            body(r);
            double total = 0;
            for (const double ns : r.selfNs_)
                total += ns;
            batches.push_back(total / kSpans);
        }
        std::sort(batches.begin(), batches.end());
        return batches[kBatches / 2];
    };
    // An empty span measures its own clock reads.
    inNs_ = per_span([](SpanRecorder &r) {
        for (int i = 0; i < kSpans; ++i) {
            r.enter(0);
            r.leave(Layer::Trace, 0);
        }
    });
    // With that removed, an empty parent's self time is what one
    // child's clock reads cost outside the child.
    const double in = inNs_;
    outNs_ = per_span([in](SpanRecorder &r) {
        r.inNs_ = in;
        for (int i = 0; i < kSpans; ++i) {
            r.enter(0);
            r.enter(0);
            r.leave(Layer::Trace, 0);
            r.leave(Layer::Cycle, 0);
        }
        r.selfNs_[static_cast<unsigned>(Layer::Trace)] = 0;
    });
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    // Spans are kept in end order; the earliest start is a parent's.
    std::int64_t origin = kept_.empty() ? 0 : kept_.front().startNs;
    for (const Kept &k : kept_)
        origin = std::min(origin, k.startNs);
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < kept_.size(); ++i) {
        const Kept &k = kept_[i];
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"cat\": \"layer\", "
                     "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                     "\"pid\": 1, \"tid\": 1, "
                     "\"args\": {\"cycle\": %llu}}",
                     i ? ",\n" : "", layerName(k.layer),
                     static_cast<double>(k.startNs - origin) / 1e3,
                     k.durNs / 1e3,
                     static_cast<unsigned long long>(k.cycle));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

bool
TimedGate::tryIssue(MemRequest &req, Tick now)
{
    SpanRecorder::Scope s(rec_, Layer::Shaper, now);
    ++rec_.counts().gateCalls;
    const bool ok = inner_.tryIssue(req, now);
    if (ok)
        ++rec_.counts().gateAdmitted;
    return ok;
}

void
TimedGate::onLlcResponse(const MemRequest &req, bool hit, Tick now)
{
    SpanRecorder::Scope s(rec_, Layer::Shaper, now);
    inner_.onLlcResponse(req, hit, now);
}

void
TimedSink::push(ReqPtr req, Tick now)
{
    SpanRecorder::Scope s(rec_, layer_, now);
    if (layer_ == Layer::Memctrl)
        ++rec_.counts().mcPushes;
    inner_.push(std::move(req), now);
}

int
TimedScheduler::pick(const TxnQueue &queue, const Dram &dram, Tick now)
{
    SpanRecorder::Scope s(rec_, Layer::Sched, now);
    ++rec_.counts().pickCalls;
    const int p = inner_.pick(queue, dram, now);
    if (p >= 0)
        ++rec_.counts().pickIssued;
    return p;
}

void
TimedScheduler::onEnqueue(const MemRequest &req, Tick now)
{
    SpanRecorder::Scope s(rec_, Layer::Sched, now);
    inner_.onEnqueue(req, now);
}

void
TimedScheduler::onComplete(const MemRequest &req, Tick now)
{
    SpanRecorder::Scope s(rec_, Layer::Sched, now);
    inner_.onComplete(req, now);
}

void
TimedScheduler::tick(Tick now)
{
    SpanRecorder::Scope s(rec_, Layer::Sched, now);
    inner_.tick(now);
}

TraceOp
TimedTrace::next()
{
    SpanRecorder::Scope s(rec_, Layer::Trace, rec_.now());
    ++rec_.counts().traceOps;
    return inner_->next();
}

void
installTracedTraceFactory(SystemConfig &cfg, SpanRecorder &rec)
{
    cfg.traceFactory = [&rec](CoreId, unsigned, const AppProfile &prof,
                              Addr base, std::uint64_t seed,
                              unsigned thread)
        -> std::unique_ptr<TraceSource> {
        return std::make_unique<TimedTrace>(
            std::make_unique<SyntheticTrace>(prof, base, seed, thread),
            rec);
    };
}

SystemDecorators::SystemDecorators(System &sys, SpanRecorder &rec)
{
    const SystemConfig &cfg = sys.config();
    for (unsigned c = 0; c < sys.numCores(); ++c) {
        const auto core = static_cast<CoreId>(c);
        SourceGate *gate = nullptr;
        if (sys.shaper(core))
            gate = sys.shaper(core);
        else if (sys.staticGate(core))
            gate = sys.staticGate(core);
        else if (cfg.gate == GateKind::None &&
                 cfg.sched == SchedulerKind::Fst)
            gate = static_cast<FstScheduler &>(sys.scheduler())
                       .gate(core);
        if (!gate)
            continue;
        gates_.push_back(std::make_unique<TimedGate>(*gate, rec));
        sys.l1(core).setGate(gates_.back().get());
        sys.llc().setGate(core, gates_.back().get());
    }

    toLlc_ = std::make_unique<TimedSink>(sys.llc(), rec, Layer::Llc);
    for (unsigned c = 0; c < sys.numCores(); ++c)
        sys.l1(static_cast<CoreId>(c)).setDownstream(toLlc_.get());
    toMc_ = std::make_unique<TimedSink>(sys.memController(), rec,
                                        Layer::Memctrl);
    sys.llc().setDownstream(toMc_.get());
    sched_ = std::make_unique<TimedScheduler>(sys.scheduler(), rec);
    sys.memController().setScheduler(sched_.get());
}

bool
tracedLoopSupports(const SystemConfig &cfg)
{
    return cfg.sched != SchedulerKind::MemGuard &&
           !(cfg.gate == GateKind::Mitts && cfg.congestionFeedback) &&
           !cfg.telemetry.enabled;
}

void
runTracedLoop(System &sys, SpanRecorder &rec, Tick cycles)
{
    const unsigned n = sys.numCores();
    EventQueue &events = sys.sim().events();
    SharedLlc &llc = sys.llc();
    MemController &mc = sys.memController();
    for (Tick t = 0; t < cycles; ++t) {
        rec.setNow(t);
        SpanRecorder::Scope cycle(rec, Layer::Cycle, t);
        {
            SpanRecorder::Scope s(rec, Layer::Events, t);
            events.runDue(t);
        }
        // One span for all cores, one for all L1s: fewer clock reads
        // per cycle, so less instrumentation to take out again.
        {
            SpanRecorder::Scope s(rec, Layer::Core, t);
            for (unsigned c = 0; c < n; ++c)
                sys.core(static_cast<CoreId>(c)).tick(t);
        }
        {
            SpanRecorder::Scope s(rec, Layer::L1, t);
            for (unsigned c = 0; c < n; ++c)
                sys.l1(static_cast<CoreId>(c)).tick(t);
        }
        {
            SpanRecorder::Scope s(rec, Layer::Llc, t);
            llc.tick(t);
        }
        {
            SpanRecorder::Scope s(rec, Layer::Memctrl, t);
            mc.tick(t);
        }
    }
}

} // namespace mitts_bench

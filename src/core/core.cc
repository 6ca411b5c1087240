#include "core/core.hh"

#include <bit>
#include <string>

#include "base/logging.hh"
#include "telemetry/telemetry.hh"

namespace mitts
{

Core::Core(std::string name, CoreId id, const CoreConfig &cfg,
           TraceSource *trace, L1Cache *l1)
    : Clocked(std::move(name)), cfg_(cfg), id_(id), trace_(trace),
      l1_(l1),
      window_(std::bit_ceil(std::size_t{cfg.windowSize})),
      windowMask_(window_.size() - 1),
      stats_(this->name()),
      instructions_(stats_.addCounter("instructions")),
      memStalls_(stats_.addCounter("mem_stall_cycles")),
      loads_(stats_.addCounter("loads")),
      stores_(stats_.addCounter("stores")),
      l1Blocked_(stats_.addCounter("l1_blocked_cycles"))
{
    MITTS_ASSERT(trace_ && l1_, "core needs a trace and an L1");
    MITTS_ASSERT(cfg.windowSize > 0, "core needs a window");
}

void
Core::tick(Tick now)
{
    if (halted_)
        return;
    if (now < stallUntil_)
        return;
    nonMemBudget_ = std::min(nonMemBudget_ + cfg_.nonMemIpc,
                             2.0 * cfg_.nonMemIpc);
    const unsigned retired = retire(now);
    bool chase_wait = false;
    bool l1_blocked = false;
    const unsigned dispatched = dispatch(now, chase_wait, l1_blocked);

    // Quiescence classification. Sleepable states make progress only
    // through the L1 — a loadComplete() or an MSHR-freeing fill() —
    // and both always arrive via a scheduled event: a full window
    // whose head is a pending memory op, a dispatch stalled on its
    // chase-chain producer, or a mem op the saturated L1 rejected.
    // Anything else (budget regrowth, actual progress) re-ticks next
    // cycle.
    idle_ = IdleState::Active;
    if (retired == 0 && dispatched == 0) {
        if (chase_wait)
            idle_ = IdleState::ChaseStall;
        else if (l1_blocked)
            idle_ = IdleState::L1Blocked;
        else if (windowCount_ >= cfg_.windowSize)
            idle_ = IdleState::RobStall;
    }
}

Tick
Core::nextWakeTick(Tick now) const
{
    // A halted slot is fully silent until the engine unhalts it
    // (which only happens between executed cycles, so a fresh wake
    // query follows every unhalt).
    if (halted_)
        return kTickNever;
    // A software stall is fully silent (tick returns before any
    // accounting), so sleep to its end; this also covers the cycle
    // where stallUntil_ == now + 1 (the next tick is a full one).
    if (now < stallUntil_)
        return stallUntil_;
    return idle_ == IdleState::Active ? now + 1 : kTickNever;
}

void
Core::onFastForward(Tick from, Tick to)
{
    // Halted slots skip silently (tick does no accounting either).
    if (halted_)
        return;
    // A software stall is silent; otherwise idle_ is fresh (a skip
    // can only start after a full tick classified the core).
    if (from < stallUntil_ || idle_ == IdleState::Active)
        return;
    const Tick cycles = to - from;
    // Each skipped cycle would have: accrued (capped) compute budget,
    // retired nothing, counted a memory stall while the window head
    // is a pending load, and re-run the blocking dispatch step (chase
    // producer check, or a rejected L1 access and its two counters).
    for (Tick i = 0; i < cycles; ++i) {
        const double next = std::min(nonMemBudget_ + cfg_.nonMemIpc,
                                     2.0 * cfg_.nonMemIpc);
        if (next == nonMemBudget_)
            break; // capped: further cycles are fixed points
        nonMemBudget_ = next;
    }
    // In every sleepable state a non-empty window has a not-done
    // memory head (non-mem entries dispatch done; a done head would
    // have retired), which is exactly retire()'s stall condition. The
    // window is only empty when the L1 blocks the first outstanding
    // miss (stores complete at dispatch and can saturate MSHRs alone).
    if (windowCount_ > 0)
        memStalls_.inc(cycles);
    if (idle_ == IdleState::ChaseStall)
        memDepStalls_ += cycles;
    if (idle_ == IdleState::L1Blocked) {
        l1Blocked_.inc(cycles);
        l1_->onSkippedBlockedAccesses(cycles);
    }
}

unsigned
Core::retire(Tick now)
{
    unsigned retired = 0;
    while (retired < cfg_.width && retired < windowCount_ &&
           slot(retired).done)
        ++retired;
    windowHead_ = (windowHead_ + retired) & windowMask_;
    windowCount_ -= retired;
    windowHeadSeq_ += retired;
    instructions_.inc(retired);
    const bool mem_stalled =
        retired == 0 && windowCount_ > 0 && slot(0).isMem;
    if (mem_stalled)
        memStalls_.inc();
    if (traceWriter_) {
        if (mem_stalled) {
            if (robStallStart_ == kTickNever)
                robStallStart_ = now;
        } else if (robStallStart_ != kTickNever) {
            traceWriter_->duration(traceTrack_, "core", "mem_stall",
                                   robStallStart_, now);
            robStallStart_ = kTickNever;
        }
    }
    return retired;
}

void
Core::registerTelemetry(telemetry::Telemetry &t)
{
    probes_.release();
    probes_.attach(&t.probes());
    const std::string prefix = stats_.name() + ".";
    using telemetry::ProbeKind;
    probes_.add(prefix + "instructions", ProbeKind::Counter,
                [this](Tick) {
                    return static_cast<double>(
                        instructions_.value());
                });
    probes_.add(prefix + "mem_stall_cycles", ProbeKind::Counter,
                [this](Tick) {
                    return static_cast<double>(memStalls_.value());
                });
    probes_.add(prefix + "loads", ProbeKind::Counter, [this](Tick) {
        return static_cast<double>(loads_.value());
    });
    probes_.add(prefix + "window_occupancy", ProbeKind::Gauge,
                [this](Tick) {
                    return static_cast<double>(windowCount_);
                });
    if (t.trace()) {
        traceWriter_ = t.trace();
        traceTrack_ = traceWriter_->track(stats_.name());
    }
}

unsigned
Core::dispatch(Tick now, bool &chase_wait, bool &l1_blocked)
{
    unsigned dispatched = 0;
    while (dispatched < cfg_.width && windowCount_ < cfg_.windowSize) {
        if (!havePendingOp_) {
            pendingOp_ = trace_->next();
            gapLeft_ = pendingOp_.gap;
            havePendingOp_ = true;
        }

        if (gapLeft_ > 0) {
            // Non-memory instruction: done at dispatch, throttled to
            // the sustained compute IPC.
            if (nonMemBudget_ < 1.0)
                break;
            nonMemBudget_ -= 1.0;
            pushWindow(true, false);
            ++nextSeq_;
            --gapLeft_;
            ++dispatched;
            continue;
        }

        // Pointer-chase dependency: the address is not known until
        // the producing load returns.
        if (pendingOp_.dependsOnPrev && !prevLoadDone()) {
            ++memDepStalls_;
            chase_wait = true;
            break;
        }

        // The memory operation itself.
        const SeqNum seq = nextSeq_;
        const L1Result res =
            l1_->access(pendingOp_.addr, pendingOp_.isWrite, seq, now);
        if (res == L1Result::Blocked) {
            l1Blocked_.inc();
            l1_blocked = true;
            break; // retry same op next cycle; seq not consumed
        }
        ++nextSeq_;
        if (pendingOp_.isWrite) {
            stores_.inc();
        } else {
            loads_.inc();
            lastLoadSeq_ = seq;
            if (pendingOp_.dependsOnPrev)
                lastChaseSeq_ = seq;
        }

        // Stores complete into the write buffer immediately; loads
        // wait for loadComplete (both on hits and fills).
        pushWindow(pendingOp_.isWrite, true);
        havePendingOp_ = false;
        ++dispatched;
    }
    return dispatched;
}

void
Core::saveState(ckpt::Writer &w) const
{
    w.u64(windowCount_);
    for (std::size_t k = 0; k < windowCount_; ++k) {
        w.u64(windowHeadSeq_ + k);
        w.b(slot(k).done);
        w.b(slot(k).isMem);
    }
    w.u64(nextSeq_);
    w.f64(nonMemBudget_);
    w.u64(lastLoadSeq_);
    w.u64(lastChaseSeq_);
    w.u64(memDepStalls_);
    w.u64(pendingOp_.gap);
    w.b(pendingOp_.isWrite);
    w.b(pendingOp_.dependsOnPrev);
    w.u64(pendingOp_.addr);
    w.b(havePendingOp_);
    w.u64(gapLeft_);
    w.u64(stallUntil_);
    w.b(halted_);
    w.u8(static_cast<std::uint8_t>(idle_));
    w.u64(robStallStart_);
    ckpt::saveGroup(w, stats_);
}

void
Core::loadState(ckpt::Reader &r)
{
    // The ring holds windowSize entries with consecutive seqs ending
    // at nextSeq_ - 1; reject anything else before it is written.
    const std::uint64_t n = r.u64();
    if (n > cfg_.windowSize)
        throw ckpt::Error("core window holds " + std::to_string(n) +
                          " entries, more than its " +
                          std::to_string(cfg_.windowSize) + " slots");
    windowHead_ = 0;
    windowCount_ = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        const SeqNum seq = r.u64();
        if (i == 0)
            windowHeadSeq_ = seq;
        else if (seq != windowHeadSeq_ + i)
            throw ckpt::Error("core window seqs are not consecutive");
        const bool done = r.b();
        pushWindow(done, r.b());
    }
    nextSeq_ = r.u64();
    if (n == 0)
        windowHeadSeq_ = nextSeq_;
    else if (windowHeadSeq_ + n != nextSeq_)
        throw ckpt::Error("core window does not end at the next seq");
    nonMemBudget_ = r.f64();
    lastLoadSeq_ = r.u64();
    lastChaseSeq_ = r.u64();
    memDepStalls_ = r.u64();
    pendingOp_.gap = static_cast<std::uint32_t>(r.u64());
    pendingOp_.isWrite = r.b();
    pendingOp_.dependsOnPrev = r.b();
    pendingOp_.addr = r.u64();
    havePendingOp_ = r.b();
    gapLeft_ = static_cast<std::uint32_t>(r.u64());
    stallUntil_ = r.u64();
    halted_ = r.b();
    idle_ = static_cast<IdleState>(r.u8());
    robStallStart_ = r.u64();
    ckpt::loadGroup(r, stats_);
}

bool
Core::prevLoadDone() const
{
    // Chase ops serialize against the previous chase-chain load (the
    // pointer they dereference); hot-set hits in between do not
    // break the chain.
    const SeqNum producer =
        lastChaseSeq_ ? lastChaseSeq_ : lastLoadSeq_;
    if (producer == 0)
        return true; // no load issued yet
    if (windowCount_ == 0 || producer < windowHeadSeq_)
        return true; // already retired
    const std::size_t idx =
        static_cast<std::size_t>(producer - windowHeadSeq_);
    return idx >= windowCount_ || slot(idx).done;
}

void
Core::loadComplete(SeqNum seq, Tick now)
{
    (void)now;
    if (windowCount_ == 0 || seq < windowHeadSeq_)
        return; // already retired (cannot happen for loads)
    const std::size_t idx = static_cast<std::size_t>(seq - windowHeadSeq_);
    MITTS_ASSERT(idx < windowCount_,
                 "loadComplete for unknown window entry");
    MITTS_ASSERT(slot(idx).isMem, "completion for non-mem entry");
    slot(idx).done = true;
}

} // namespace mitts

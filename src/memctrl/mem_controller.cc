#include "memctrl/mem_controller.hh"

#include <algorithm>

#include "base/logging.hh"
#include "cache/shared_llc.hh"
#include "telemetry/telemetry.hh"

namespace mitts
{

MemController::MemController(std::string name, const McConfig &cfg,
                             const DramConfig &dram_cfg,
                             EventQueue &events)
    : Clocked(std::move(name)), cfg_(cfg), events_(events),
      stats_(this->name()),
      reads_(stats_.addCounter("reads")),
      writes_(stats_.addCounter("writes")),
      completed_(stats_.addCounter("completed_reads")),
      queueLatency_(stats_.addAverage("queue_latency")),
      totalLatency_(stats_.addAverage("mem_latency"))
{
    MITTS_ASSERT(cfg.queueDepth > 0, "queue depth must be positive");
    MITTS_ASSERT(cfg.numChannels > 0, "need at least one channel");
    for (unsigned c = 0; c < cfg.numChannels; ++c)
        drams_.push_back(std::make_unique<Dram>(dram_cfg));
    queues_.resize(cfg.numChannels);
    draining_.assign(cfg.numChannels, false);
    scanMin_.assign(cfg.numChannels, 0);
    scanValid_.assign(cfg.numChannels, 0);
}

void
MemController::initPerCore(unsigned num_cores)
{
    for (unsigned c = 0; c < num_cores; ++c) {
        completedPerCore_.push_back(&stats_.addCounter(
            "core" + std::to_string(c) + "_completed"));
        latencyPerCore_.push_back(&stats_.addAverage(
            "core" + std::to_string(c) + "_mem_latency"));
        if (cfg_.latencyHistograms)
            latencyHistPerCore_.push_back(&stats_.addHistogram(
                "core" + std::to_string(c) + "_mem_latency_hist",
                cfg_.latencyHistBins, cfg_.latencyHistBinWidth));
    }
}

void
MemController::registerTelemetry(telemetry::Telemetry &t)
{
    probes_.release();
    probes_.attach(&t.probes());
    const std::string prefix = stats_.name() + ".";
    using telemetry::ProbeKind;
    probes_.add(prefix + "reads", ProbeKind::Counter, [this](Tick) {
        return static_cast<double>(reads_.value());
    });
    probes_.add(prefix + "writes", ProbeKind::Counter, [this](Tick) {
        return static_cast<double>(writes_.value());
    });
    probes_.add(prefix + "completed_reads", ProbeKind::Counter,
                [this](Tick) {
                    return static_cast<double>(completed_.value());
                });
    probes_.add(prefix + "queue_occupancy", ProbeKind::Gauge,
                [this](Tick) {
                    return static_cast<double>(queueSize());
                });
    probes_.add(prefix + "smoothing_fifo_occupancy", ProbeKind::Gauge,
                [this](Tick) {
                    return static_cast<double>(smoothingFifo_.size());
                });
    for (unsigned c = 0; c < cfg_.numChannels; ++c) {
        drams_[c]->registerTelemetry(
            t, cfg_.numChannels == 1
                   ? std::string("dram")
                   : "dram.ch" + std::to_string(c));
    }
}

unsigned
MemController::channelOf(Addr block_addr) const
{
    if (cfg_.numChannels == 1)
        return 0;
    // Interleave rows across channels so streams spread out.
    const std::uint64_t row =
        block_addr / drams_[0]->config().rowBytes;
    return static_cast<unsigned>(row % cfg_.numChannels);
}

bool
MemController::canAccept(const MemRequest &req) const
{
    if (cfg_.smoothingFifoDepth > 0)
        return smoothingFifo_.size() < cfg_.smoothingFifoDepth;
    return queues_[channelOf(req.blockAddr)].size() <
           cfg_.queueDepth;
}

void
MemController::push(ReqPtr req, Tick now)
{
    MITTS_ASSERT(canAccept(*req), "MC overflow");
    if (req->isRead() || req->op == MemOp::Write)
        reads_.inc();
    else
        writes_.inc();

    if (cfg_.smoothingFifoDepth > 0) {
        smoothingFifo_.push_back(std::move(req));
        return;
    }
    req->mcEnqueueAt = now;
    if (sched_)
        sched_->onEnqueue(*req, now);
    const unsigned channel = channelOf(req->blockAddr);
    queues_[channel].push(std::move(req), drams_[channel]->config());
    invalidateChannel(channel);
}

void
MemController::tick(Tick now)
{
    for (unsigned c = 0; c < cfg_.numChannels; ++c) {
        // A firing refresh rewrites bank timing state.
        if (now >= drams_[c]->nextRefreshTick())
            invalidateChannel(c);
        drams_[c]->tick(now);
    }
    if (sched_)
        sched_->tick(now);

    // Drain the smoothing FIFO into the transaction queues in order —
    // this is what serializes simultaneous multi-core bursts.
    while (!smoothingFifo_.empty()) {
        const unsigned channel =
            channelOf(smoothingFifo_.front()->blockAddr);
        auto &q = queues_[channel];
        if (q.size() >= cfg_.queueDepth)
            break;
        ReqPtr req = std::move(smoothingFifo_.front());
        smoothingFifo_.pop_front();
        req->mcEnqueueAt = now;
        if (sched_)
            sched_->onEnqueue(*req, now);
        q.push(std::move(req), drams_[channel]->config());
        invalidateChannel(channel);
    }

    for (unsigned c = 0; c < cfg_.numChannels; ++c)
        scheduleChannel(c, now);
}

Tick
MemController::nextWakeTick(Tick now) const
{
    // The smoothing FIFO drains (or retries) every cycle.
    if (!smoothingFifo_.empty())
        return now + 1;
    Tick wake = kTickNever;
    for (unsigned c = 0; c < cfg_.numChannels; ++c) {
        wake = std::min(wake, drams_[c]->nextRefreshTick());
        // Ticking a channel with queued work re-evaluates the
        // write-drain hysteresis even when nothing can issue, so the
        // controller is only quiescent once the latch sits at its
        // fixed point for the current queue mix. (The mix last
        // changed after the latch was evaluated — an issue follows
        // the update inside the same tick.)
        const TxnQueue &q = queues_[c];
        if (!q.empty() && cfg_.writeDrainHigh > 0) {
            const unsigned wr = q.writebacks();
            bool next = draining_[c];
            if (wr >= cfg_.writeDrainHigh)
                next = true;
            else if (wr <= cfg_.writeDrainLow)
                next = false;
            if (next != draining_[c])
                return now + 1;
        }
        // No queued transaction can issue before its DRAM timing
        // constraints clear; all of them are exact lower bounds, and
        // in-flight bursts complete through scheduled events. The
        // bound is cached per channel (see scanMin_).
        if (!scanValid_[c]) {
            scanMin_[c] = scanIssueBound(c, now + 1);
            scanValid_[c] = 1;
        }
        wake = std::min(wake, scanMin_[c]);
    }
    if (sched_)
        wake = std::min(wake, sched_->nextWakeTick(now));
    return std::max(wake, now + 1);
}

Tick
MemController::scanIssueBound(unsigned channel, Tick from) const
{
    // Each per-transaction bound is clamped to `from`, so the scan
    // over the queue's flat coordinate column stops early once it
    // reaches that floor.
    const TxnQueue &q = queues_[channel];
    const Dram &dram = *drams_[channel];
    Tick qmin = kTickNever;
    for (std::size_t i = 0; i < q.size(); ++i) {
        qmin = std::min(qmin, dram.earliestIssueTick(q.coord(i),
                                                     q.isWrite(i), from));
        if (qmin <= from)
            break;
    }
    return qmin;
}

int
MemController::pickOldestWrite(const TxnQueue &queue,
                               const Dram &dram, Tick now) const
{
    int best = -1;
    Tick best_at = kTickNever;
    for (std::size_t i = 0; i < queue.size(); ++i) {
        if (queue.isDemand(i))
            continue;
        if (!dram.canIssue(queue.coord(i), true, now))
            continue;
        if (queue.enqueueAt(i) < best_at) {
            best = static_cast<int>(i);
            best_at = queue.enqueueAt(i);
        }
    }
    return best;
}

void
MemController::scheduleChannel(unsigned channel, Tick now)
{
    auto &queue = queues_[channel];
    if (queue.empty())
        return;

    MITTS_ASSERT(sched_, "MemController has no scheduler");
    Dram &dram = *drams_[channel];

    // Write-drain hysteresis: writebacks normally lose to demand
    // reads, so they are batched once they threaten to fill the
    // queue.
    if (cfg_.writeDrainHigh > 0) {
        const unsigned writes = queue.writebacks();
        if (writes >= cfg_.writeDrainHigh)
            draining_[channel] = true;
        else if (writes <= cfg_.writeDrainLow)
            draining_[channel] = false;
    }

    // Issue gate: when no queued transaction can issue this cycle,
    // neither pick below can choose one (both take only canIssue
    // entries, and MemScheduler::pick changes no state when it
    // returns -1), so skip the scans. The bound is exact: filled at
    // an earlier tick or from `now` itself, scanMin_ <= now holds
    // exactly when some entry can issue now. A stale bound is never
    // read: every change to the queue or the bank timing state
    // invalidates it first.
    if (!scanValid_[channel]) {
        scanMin_[channel] = scanIssueBound(channel, now);
        scanValid_[channel] = 1;
    }
    if (scanMin_[channel] > now) {
        if (verifyIssueGate_) {
            for (std::size_t i = 0; i < queue.size(); ++i)
                MITTS_ASSERT(!dram.canIssue(queue.coord(i),
                                            queue.isWrite(i), now),
                             "issue gate skipped a ready transaction "
                             "on channel ", channel, " at cycle ", now,
                             " (bound ", scanMin_[channel], ")");
        }
        return;
    }

    if (cfg_.writeDrainHigh > 0 && draining_[channel]) {
        const int wpick = pickOldestWrite(queue, dram, now);
        if (wpick >= 0) {
            const DramCoord coord = queue.coord(wpick);
            ReqPtr req = queue.take(wpick);
            req->dramIssueAt = now;
            dram.issue(coord, true, now);
            invalidateChannel(channel);
            return;
        }
    }

    const int pick = sched_->pick(queue, dram, now);
    if (pick < 0)
        return;
    MITTS_ASSERT(static_cast<std::size_t>(pick) < queue.size(),
                 "scheduler picked out of range");

    const DramCoord coord = queue.coord(pick);
    const bool is_write = queue.isWrite(pick);
    MITTS_ASSERT(dram.canIssue(coord, is_write, now),
                 "scheduler picked non-ready transaction");
    ReqPtr req = queue.take(pick);

    req->dramIssueAt = now;
    queueLatency_.sample(static_cast<double>(now - req->mcEnqueueAt));
    const Tick done = dram.issue(coord, is_write, now);
    invalidateChannel(channel);

    if (req->isDemand())
        events_.schedule(done, EventDesc::memComplete(std::move(req)));
}

void
MemController::complete(const ReqPtr &req, Tick done)
{
    req->doneAt = done;
    completed_.inc();
    const auto lat = static_cast<double>(done - req->l1MissAt);
    totalLatency_.sample(lat);
    if (req->core >= 0 && static_cast<std::size_t>(req->core) <
                              completedPerCore_.size()) {
        completedPerCore_[req->core]->inc();
        latencyPerCore_[req->core]->sample(lat);
        if (cfg_.latencyHistograms)
            latencyHistPerCore_[req->core]->sample(lat);
    }
    if (sched_)
        sched_->onComplete(*req, done);
    if (llc_)
        llc_->fillFromMem(req, done);
}

void
MemController::checkpoint(ckpt::Archive &a)
{
    a.expect(queues_.size(), "MC channel count mismatch");
    for (unsigned c = 0; c < queues_.size(); ++c) {
        auto &q = queues_[c];
        std::uint64_t n = q.size();
        a.u64(n);
        if (!a.saving())
            q.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            ReqPtr req = a.saving() ? q.req(i) : nullptr;
            a.request(req);
            if (!a.saving())
                q.push(std::move(req), drams_[c]->config());
        }
    }
    a.vecBool(draining_);
    a.check(draining_.size() == queues_.size(),
            "MC drain-latch count mismatch");
    a.seq(smoothingFifo_, [&](ReqPtr &r) { a.request(r); });
    for (auto &dram : drams_)
        a.state(*dram);
    a.group(stats_);
    if (!a.saving()) {
        for (unsigned c = 0; c < cfg_.numChannels; ++c)
            invalidateChannel(c);
    }
}

} // namespace mitts

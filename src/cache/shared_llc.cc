#include "cache/shared_llc.hh"

#include <algorithm>

#include "base/logging.hh"
#include "telemetry/telemetry.hh"

namespace mitts
{

SharedLlc::SharedLlc(std::string name, const LlcConfig &cfg,
                     unsigned num_cores, RequestPool &pool,
                     EventQueue &events)
    : Clocked(std::move(name)), cfg_(cfg), pool_(pool), events_(events),
      array_(cfg.sizeBytes, cfg.assoc), banks_(cfg.numBanks),
      l1s_(num_cores, nullptr), gates_(num_cores, nullptr),
      stats_(this->name()),
      hits_(stats_.addCounter("hits")),
      misses_(stats_.addCounter("misses")),
      merged_(stats_.addCounter("merged_misses")),
      writebacks_(stats_.addCounter("writebacks")),
      bankStalls_(stats_.addCounter("bank_stall_cycles"))
{
    for (unsigned c = 0; c < num_cores; ++c) {
        coreHits_.push_back(
            &stats_.addCounter("core" + std::to_string(c) + "_hits"));
        coreMisses_.push_back(
            &stats_.addCounter("core" + std::to_string(c) + "_misses"));
        missHist_.push_back(&stats_.addHistogram(
            "core" + std::to_string(c) + "_miss_inter_arrival",
            cfg.histBins, static_cast<double>(cfg.histBinWidth)));
    }
    lastMissAt_.assign(num_cores, kTickNever);
}

void
SharedLlc::registerTelemetry(telemetry::Telemetry &t)
{
    probes_.release();
    probes_.attach(&t.probes());
    const std::string prefix = stats_.name() + ".";
    using telemetry::ProbeKind;
    probes_.add(prefix + "hits", ProbeKind::Counter, [this](Tick) {
        return static_cast<double>(hits_.value());
    });
    probes_.add(prefix + "misses", ProbeKind::Counter, [this](Tick) {
        return static_cast<double>(misses_.value());
    });
    probes_.add(prefix + "writebacks", ProbeKind::Counter,
                [this](Tick) {
                    return static_cast<double>(writebacks_.value());
                });
    probes_.add(prefix + "mshr_occupancy", ProbeKind::Gauge,
                [this](Tick) {
                    return static_cast<double>(missMap_.size());
                });
    probes_.add(prefix + "bank_queue_occupancy", ProbeKind::Gauge,
                [this](Tick) { return static_cast<double>(queued_); });
    probes_.add(prefix + "wb_backlog", ProbeKind::Gauge,
                [this](Tick) {
                    return static_cast<double>(wbQueue_.size());
                });
}

unsigned
SharedLlc::bankOf(Addr block_addr) const
{
    return static_cast<unsigned>((block_addr / kBlockBytes) %
                                 cfg_.numBanks);
}

bool
SharedLlc::canAccept(const MemRequest &req) const
{
    const Bank &bank = banks_[bankOf(req.blockAddr)];
    return bank.queue.size() < cfg_.bankQueueDepth;
}

void
SharedLlc::push(ReqPtr req, Tick now)
{
    const unsigned b = bankOf(req->blockAddr);
    Bank &bank = banks_[b];
    MITTS_ASSERT(bank.queue.size() < cfg_.bankQueueDepth,
                 "LLC bank overflow");
    req->llcAt = now;
    Tick delay = 1;
    if (noc_ && req->core >= 0) {
        delay += noc_->route(
            static_cast<unsigned>(req->core) % noc_->numNodes(),
            b % noc_->numNodes(), now);
    }
    bank.queue.push_back(BankEntry{std::move(req), now + delay});
    ++queued_;
}

void
SharedLlc::tick(Tick now)
{
    // Drain one pending LLC writeback to memory per cycle.
    if (!wbQueue_.empty() && downstream_ &&
        downstream_->canAccept(*wbQueue_.front())) {
        downstream_->push(std::move(wbQueue_.front()), now);
        wbQueue_.pop_front();
    }
    if (queued_ == 0)
        return;
    for (auto &bank : banks_)
        processBank(bank, now);
}

Tick
SharedLlc::nextWakeTick(Tick now) const
{
    // Writebacks drain (or retry) every cycle.
    if (!wbQueue_.empty())
        return now + 1;
    // Empty banks: fills from memory re-awaken the system through
    // scheduled events, and new requests arrive with an executed L1
    // tick.
    if (queued_ == 0)
        return kTickNever;
    Tick wake = kTickNever;
    for (const auto &bank : banks_) {
        if (bank.queue.empty())
            continue;
        const Tick ready = bank.queue.front().readyAt;
        // A ready head either processed this cycle (more may follow)
        // or is blocked on the miss map / memory controller, which
        // counts a bank stall per cycle — stay awake either way.
        if (ready <= now)
            return now + 1;
        wake = std::min(wake, ready);
    }
    // All banks idle until their NoC-delayed heads arrive; fills from
    // memory re-awaken the system through scheduled events.
    return wake;
}

void
SharedLlc::processBank(Bank &bank, Tick now)
{
    if (bank.queue.empty() || bank.queue.front().readyAt > now)
        return;

    ReqPtr &req = bank.queue.front().req;
    const Addr block = req->blockAddr;

    if (req->op == MemOp::Writeback) {
        // L1 dirty eviction: install/refresh the line as dirty.
        if (!array_.touch(block, true)) {
            Victim v = array_.insert(block, true);
            if (v.valid && v.dirty) {
                writebacks_.inc();
                wbQueue_.push_back(pool_.make(nextWbSeq_++,
                                              v.blockAddr,
                                              MemOp::Writeback, kNoCore,
                                              now));
            }
        }
        popBank(bank);
        return;
    }

    // Demand access.
    if (array_.touch(block)) {
        hits_.inc();
        if (req->core >= 0)
            coreHits_[req->core]->inc();
        req->llcHit = true;
        notifyGate(req, true, now);
        respondToL1(req, cfg_.hitLatency, now);
        popBank(bank);
        return;
    }

    // Miss. Merge with an outstanding fill for the same block.
    if (auto it = missMap_.find(block); it != missMap_.end()) {
        merged_.inc();
        misses_.inc();
        if (req->core >= 0) {
            coreMisses_[req->core]->inc();
            sampleMissInterArrival(req->core, now);
        }
        notifyGate(req, false, now);
        it->second.push_back(std::move(req));
        popBank(bank);
        return;
    }

    // New miss: needs a miss-map slot and memory-controller space.
    if (missMap_.size() >= cfg_.maxOutstandingMisses || !downstream_ ||
        !downstream_->canAccept(*req)) {
        bankStalls_.inc();
        return;
    }

    misses_.inc();
    if (req->core >= 0) {
        coreMisses_[req->core]->inc();
        sampleMissInterArrival(req->core, now);
    }
    req->llcHit = false;
    notifyGate(req, false, now);
    missMap_[block].push_back(req);
    downstream_->push(req, now);
    popBank(bank);
}

void
SharedLlc::popBank(Bank &bank)
{
    bank.queue.pop_front();
    --queued_;
}

void
SharedLlc::fillFromMem(const ReqPtr &req, Tick now)
{
    const Addr block = req->blockAddr;
    if (!array_.contains(block)) {
        Victim v = array_.insert(block, false);
        if (v.valid && v.dirty) {
            writebacks_.inc();
            wbQueue_.push_back(pool_.make(nextWbSeq_++, v.blockAddr,
                                          MemOp::Writeback, kNoCore,
                                          now));
        }
    }

    auto it = missMap_.find(block);
    MITTS_ASSERT(it != missMap_.end(), "fill for unknown miss");
    for (const auto &waiter : it->second)
        respondToL1(waiter, cfg_.fillToL1Latency, now);
    missMap_.erase(it);
}

void
SharedLlc::respondToL1(const ReqPtr &req, Tick delay, Tick now)
{
    if (req->core < 0 || !l1s_[req->core])
        return;
    if (noc_) {
        delay += noc_->route(
            bankOf(req->blockAddr) % noc_->numNodes(),
            static_cast<unsigned>(req->core) % noc_->numNodes(),
            now + delay);
    }
    events_.schedule(now + delay, EventDesc::llcFill(req));
}

void
SharedLlc::checkpoint(ckpt::Archive &a)
{
    array_.checkpoint(a);
    a.expect(banks_.size(), "LLC bank count mismatch");
    for (auto &bank : banks_) {
        a.seq(bank.queue, [&](BankEntry &e) {
            a.request(e.req);
            a.u64(e.readyAt);
        });
    }
    if (!a.saving()) {
        queued_ = 0;
        for (const auto &bank : banks_)
            queued_ += bank.queue.size();
    }
    a.sortedMap(missMap_, [&](std::vector<ReqPtr> &waiters) {
        a.seq(waiters, [&](ReqPtr &r) { a.request(r); });
    });
    a.seq(wbQueue_, [&](ReqPtr &r) { a.request(r); });
    a.u64(nextWbSeq_);
    a.vecU64(lastMissAt_);
    a.check(lastMissAt_.size() == l1s_.size(), "LLC core count mismatch");
    a.group(stats_);
}

void
SharedLlc::sampleMissInterArrival(CoreId core, Tick now)
{
    if (lastMissAt_[core] != kTickNever)
        missHist_[core]->sample(
            static_cast<double>(now - lastMissAt_[core]));
    lastMissAt_[core] = now;
}

void
SharedLlc::notifyGate(const ReqPtr &req, bool hit, Tick now)
{
    if (req->core >= 0 && gates_[req->core])
        gates_[req->core]->onLlcResponse(*req, hit, now);
}

} // namespace mitts

#include "cache/l1_cache.hh"

#include "base/logging.hh"

namespace mitts
{

L1Cache::L1Cache(std::string name, const L1Config &cfg, CoreId core,
                 RequestPool &pool)
    : Clocked(std::move(name)), cfg_(cfg), core_(core), pool_(pool),
      array_(cfg.sizeBytes, cfg.assoc),
      mshrs_(cfg.mshrs, cfg.mshrTargets),
      stats_(this->name()),
      hits_(stats_.addCounter("hits")),
      misses_(stats_.addCounter("misses")),
      coalesced_(stats_.addCounter("coalesced")),
      mshrBlocks_(stats_.addCounter("mshr_blocks")),
      writebacks_(stats_.addCounter("writebacks")),
      shaperStalls_(stats_.addCounter("shaper_stall_cycles"))
{
    // A zero-latency hit would be ready in the cycle that issued it.
    MITTS_ASSERT(cfg.hitLatency >= 1, "L1 hit latency must be >= 1");
}

L1Result
L1Cache::access(Addr addr, bool is_write, SeqNum seq, Tick now)
{
    const Addr block = addr & ~static_cast<Addr>(kBlockBytes - 1);

    if (array_.touch(block, is_write)) {
        hits_.inc();
        return L1Result::Hit;
    }

    // Miss: coalesce into an existing MSHR when possible.
    if (Mshr *m = mshrs_.find(block)) {
        if (!mshrs_.canCoalesce(*m)) {
            mshrBlocks_.inc();
            return L1Result::Blocked;
        }
        coalesced_.inc();
        if (is_write)
            m->storeSeen = true;
        else
            m->waitingLoads.push_back(seq);
        return L1Result::MissQueued;
    }

    if (mshrs_.full()) {
        mshrBlocks_.inc();
        return L1Result::Blocked;
    }

    misses_.inc();
    Mshr &m = mshrs_.allocate(block, now);
    if (is_write)
        m.storeSeen = true;
    else
        m.waitingLoads.push_back(seq);

    // Write-allocate: a store miss fetches the line with a read.
    ReqPtr req = pool_.make(seq, addr,
                            is_write ? MemOp::Write : MemOp::Read,
                            core_, now);
    req->l1MissAt = now;
    sendQueue_.push_back(std::move(req));
    return L1Result::MissQueued;
}

void
L1Cache::tick(Tick now)
{
    // Writebacks bypass the shaper (they are evictions, not demand
    // traffic) but still respect downstream capacity.
    if (!writebackQueue_.empty() && downstream_ &&
        downstream_->canAccept(*writebackQueue_.front())) {
        downstream_->push(std::move(writebackQueue_.front()), now);
        writebackQueue_.pop_front();
    }

    if (sendQueue_.empty() || !downstream_)
        return;

    ReqPtr &head = sendQueue_.front();
    if (!downstream_->canAccept(*head))
        return;
    if (gate_ && !gate_->tryIssue(*head, now)) {
        shaperStalls_.inc();
        return;
    }
    head->shaperReleaseAt = now;
    downstream_->push(std::move(head), now);
    sendQueue_.pop_front();
}

Tick
L1Cache::nextWakeTick(Tick now) const
{
    // A pending writeback drains (or retries a full downstream) every
    // cycle; stay awake.
    if (!writebackQueue_.empty())
        return now + 1;
    // Nothing to send: ticks are pure no-ops until the core enqueues
    // a miss (during an executed core tick) or a fill arrives (event).
    if (sendQueue_.empty() || !downstream_)
        return kTickNever;
    // Downstream full: the LLC is active draining its banks, so the
    // global wake is next cycle anyway; just retry.
    if (!downstream_->canAccept(*sendQueue_.front()))
        return now + 1;
    // Head is gate-blocked: sleep until the gate could let it pass.
    if (gate_)
        return std::max(gate_->nextIssueTick(now), now + 1);
    return now + 1;
}

void
L1Cache::onFastForward(Tick from, Tick to)
{
    // The only skippable L1 state with per-cycle effects is a
    // gate-blocked head: each skipped cycle would have retried
    // tryIssue() and counted one stall here and one in the gate.
    if (writebackQueue_.empty() && !sendQueue_.empty() && gate_ &&
        downstream_ && downstream_->canAccept(*sendQueue_.front())) {
        const Tick cycles = to - from;
        shaperStalls_.inc(cycles);
        gate_->onSkippedStalls(cycles);
    }
}

void
L1Cache::fill(const ReqPtr &req, Tick now)
{
    Mshr *m = mshrs_.find(req->blockAddr);
    MITTS_ASSERT(m, "fill without MSHR: block ", req->blockAddr);

    if (!array_.contains(req->blockAddr)) {
        Victim v = array_.insert(req->blockAddr, m->storeSeen);
        if (v.valid && v.dirty)
            sendWriteback(v.blockAddr, now);
    } else if (m->storeSeen) {
        array_.markDirty(req->blockAddr);
    }

    if (client_) {
        for (SeqNum seq : m->waitingLoads)
            client_->loadComplete(seq, now);
    }
    mshrs_.release(*m);
}

void
L1Cache::checkpoint(ckpt::Archive &a)
{
    array_.checkpoint(a);
    mshrs_.checkpoint(a);
    a.seq(sendQueue_, [&](ReqPtr &r) { a.request(r); });
    a.seq(writebackQueue_, [&](ReqPtr &r) { a.request(r); });
    a.u64(nextWbSeq_);
    a.group(stats_);
}

void
L1Cache::sendWriteback(Addr block_addr, Tick now)
{
    writebacks_.inc();
    ReqPtr wb = pool_.make(nextWbSeq_++, block_addr, MemOp::Writeback,
                           core_, now);
    writebackQueue_.push_back(std::move(wb));
}

} // namespace mitts

#include "dram/dram.hh"

#include <algorithm>

#include "base/logging.hh"
#include "telemetry/telemetry.hh"

namespace mitts
{

Dram::Dram(const DramConfig &cfg)
    : cfg_(cfg), bankRowOpen_(cfg.numBanks, 0),
      bankRow_(cfg.numBanks, 0), bankBusyUntil_(cfg.numBanks, 0),
      bankActivateAt_(cfg.numBanks, 0),
      bankWriteRecoverUntil_(cfg.numBanks, 0),
      recentActivates_(4, 0),
      nextRefreshAt_(cfg.refreshEnabled ? cfg.tREFI : kTickNever),
      stats_("dram"),
      rowHits_(stats_.addCounter("row_hits")),
      rowMisses_(stats_.addCounter("row_misses")),
      rowConflicts_(stats_.addCounter("row_conflicts")),
      refreshes_(stats_.addCounter("refreshes"))
{
    MITTS_ASSERT(isPowerOf2(cfg.numBanks), "banks must be a power of 2");
}

void
Dram::registerTelemetry(telemetry::Telemetry &t,
                        const std::string &prefix)
{
    probes_.release();
    probes_.attach(&t.probes());
    using telemetry::ProbeKind;
    probes_.add(prefix + ".row_hits", ProbeKind::Counter,
                [this](Tick) {
                    return static_cast<double>(rowHits_.value());
                });
    probes_.add(prefix + ".row_misses", ProbeKind::Counter,
                [this](Tick) {
                    return static_cast<double>(rowMisses_.value());
                });
    probes_.add(prefix + ".row_conflicts", ProbeKind::Counter,
                [this](Tick) {
                    return static_cast<double>(rowConflicts_.value());
                });
    probes_.add(prefix + ".refreshes", ProbeKind::Counter,
                [this](Tick) {
                    return static_cast<double>(refreshes_.value());
                });
    probes_.add(prefix + ".banks_busy", ProbeKind::Gauge,
                [this](Tick now) {
                    unsigned busy = 0;
                    for (const Tick until : bankBusyUntil_)
                        busy += now < until ? 1 : 0;
                    return static_cast<double>(busy);
                });
    if (t.trace()) {
        trace_ = t.trace();
        traceTrack_ = trace_->track(prefix);
    }
}

RowState
Dram::rowState(const DramCoord &c) const
{
    if (!bankRowOpen_[c.bank])
        return RowState::Closed;
    return bankRow_[c.bank] == c.row ? RowState::Hit
                                     : RowState::Conflict;
}

bool
Dram::activateAllowed(Tick at) const
{
    if (!anyActivate_)
        return true;
    if (at < lastActivate_ + cfg_.tRRD)
        return false;
    // tFAW: the fourth-most-recent activate bounds a new one (only
    // meaningful once four activates have actually happened).
    if (numActivates_ < recentActivates_.size())
        return true;
    const Tick fourth = recentActivates_[actHead_];
    return at >= fourth + cfg_.tFAW;
}

void
Dram::recordActivate(Tick at)
{
    recentActivates_[actHead_] = at;
    actHead_ = (actHead_ + 1) % recentActivates_.size();
    lastActivate_ = at;
    anyActivate_ = true;
    ++numActivates_;
}

Tick
Dram::earliestActivate(Tick from, Tick precharge) const
{
    // Earliest issue tick t >= from whose activate (at t + precharge)
    // clears the tRRD and tFAW windows.
    if (!anyActivate_)
        return from;
    Tick min_act = lastActivate_ + cfg_.tRRD;
    if (numActivates_ >= recentActivates_.size())
        min_act = std::max(min_act,
                           recentActivates_[actHead_] + cfg_.tFAW);
    if (min_act > from + precharge)
        return min_act - precharge;
    return from;
}

Tick
Dram::earliestIssueTick(const DramCoord &c, bool is_write,
                        Tick from) const
{
    (void)is_write;
    Tick t = std::max(from, refBlockUntil_);
    t = std::max(t, bankBusyUntil_[c.bank]);
    switch (rowState(c)) {
      case RowState::Hit:
        if (busFreeAt_ > cfg_.tCL)
            t = std::max(t, busFreeAt_ - cfg_.tCL);
        break;
      case RowState::Closed:
        t = earliestActivate(t, 0);
        break;
      case RowState::Conflict:
        t = std::max(t, bankActivateAt_[c.bank] + cfg_.tRAS);
        t = std::max(t, bankWriteRecoverUntil_[c.bank]);
        t = earliestActivate(t, cfg_.tRP);
        break;
    }
    return t;
}

bool
Dram::canIssue(const DramCoord &c, bool is_write, Tick now) const
{
    (void)is_write;
    if (now < refBlockUntil_)
        return false;

    if (now < bankBusyUntil_[c.bank])
        return false;

    switch (rowState(c)) {
      case RowState::Hit:
        // Bound the bus backlog so queueing happens in the scheduler's
        // view, not hidden inside the bus reservation.
        return now + cfg_.tCL >= busFreeAt_;
      case RowState::Closed:
        return activateAllowed(now);
      case RowState::Conflict:
        if (now < bankActivateAt_[c.bank] + cfg_.tRAS)
            return false;
        if (now < bankWriteRecoverUntil_[c.bank])
            return false;
        return activateAllowed(now + cfg_.tRP);
    }
    return false;
}

Tick
Dram::issue(const DramCoord &c, bool is_write, Tick now)
{
    MITTS_ASSERT(canIssue(c, is_write, now),
                 "issue() without canIssue()");
    const unsigned bank = c.bank;

    Tick cas = now;
    switch (rowState(c)) {
      case RowState::Hit:
        rowHits_.inc();
        break;
      case RowState::Closed:
        rowMisses_.inc();
        recordActivate(now);
        bankActivateAt_[bank] = now;
        bankRowOpen_[bank] = 1;
        bankRow_[bank] = c.row;
        cas = now + cfg_.tRCD;
        break;
      case RowState::Conflict: {
        rowConflicts_.inc();
        if (trace_)
            trace_->instant(traceTrack_, "dram", "row_conflict", now);
        const Tick act = now + cfg_.tRP;
        recordActivate(act);
        bankActivateAt_[bank] = act;
        bankRow_[bank] = c.row;
        cas = act + cfg_.tRCD;
        break;
      }
    }

    const Tick access_lat = is_write ? cfg_.tWL : cfg_.tCL;
    const Tick data_start = std::max(cas + access_lat, busFreeAt_);
    const Tick data_end = data_start + cfg_.tBURST;
    busFreeAt_ = data_end;
    // Bank command slot frees once the CAS is issued.
    bankBusyUntil_[bank] = cas;
    if (is_write)
        bankWriteRecoverUntil_[bank] = data_end + cfg_.tWR;
    return data_end;
}

void
Dram::tick(Tick now)
{
    if (now < nextRefreshAt_)
        return;
    // Close all rows and block the channel for tRFC. Banks finishing
    // in-flight bursts keep their busyUntil if later.
    refBlockUntil_ = now + cfg_.tRFC;
    for (unsigned b = 0; b < cfg_.numBanks; ++b) {
        bankRowOpen_[b] = 0;
        bankBusyUntil_[b] =
            std::max(bankBusyUntil_[b], refBlockUntil_);
    }
    nextRefreshAt_ += cfg_.tREFI;
    refreshes_.inc();
    if (trace_)
        trace_->duration(traceTrack_, "dram", "refresh", now,
                         refBlockUntil_);
}

void
Dram::checkpoint(ckpt::Archive &a)
{
    // Per-bank fields stay interleaved in the stream (the layout
    // predates the SoA split) so checkpoints remain byte-compatible.
    a.expect(bankRowOpen_.size(), "DRAM bank count mismatch");
    for (std::size_t b = 0; b < bankRowOpen_.size(); ++b) {
        a.flag(bankRowOpen_[b]);
        a.u64(bankRow_[b]);
        a.u64(bankBusyUntil_[b]);
        a.u64(bankActivateAt_[b]);
        a.u64(bankWriteRecoverUntil_[b]);
    }
    a.u64(busFreeAt_);
    a.vecU64(recentActivates_);
    a.check(recentActivates_.size() == 4,
            "DRAM activate ring size mismatch");
    a.index(actHead_, recentActivates_.size(), "DRAM activate ring head");
    a.narrow(numActivates_, "DRAM activate count");
    a.u64(lastActivate_);
    a.b(anyActivate_);
    a.u64(nextRefreshAt_);
    a.u64(refBlockUntil_);
    a.group(stats_);
}

} // namespace mitts

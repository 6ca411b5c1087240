#include "shaper/mitts_shaper.hh"

#include <algorithm>
#include <bit>
#include <sstream>

#include "base/bitutil.hh"
#include "telemetry/telemetry.hh"

namespace mitts
{

std::string
BinConfig::toString() const
{
    std::ostringstream os;
    os << "[";
    for (unsigned i = 0; i < spec.numBins; ++i)
        os << (i ? " " : "") << credits[i];
    os << "] Tr=" << spec.replenishPeriod;
    return os.str();
}

void
binConfig(ckpt::Archive &a, BinConfig &c)
{
    std::uint64_t bins = c.spec.numBins;
    std::uint64_t max_credits = c.spec.maxCredits;
    std::uint8_t policy = static_cast<std::uint8_t>(c.spec.policy);
    a.u64(bins);
    a.u64(c.spec.intervalLength);
    a.u64(c.spec.replenishPeriod);
    a.u64(max_credits);
    a.u8(policy);
    a.vecU32(c.credits);
    if (a.saving())
        return;
    if (bins == 0 || bins > kMaxBins)
        throw ckpt::Error("bin config: " + std::to_string(bins) +
                          " bins (want 1.." + std::to_string(kMaxBins) +
                          ")");
    a.check(c.spec.intervalLength != 0, "bin config: zero interval length");
    a.check(c.spec.replenishPeriod != 0,
            "bin config: zero replenish period");
    if (max_credits > UINT32_MAX)
        throw ckpt::Error("bin config: maxCredits " +
                          std::to_string(max_credits) +
                          " exceeds 32 bits");
    if (policy > static_cast<std::uint8_t>(ReplenishPolicy::Rolling))
        throw ckpt::Error("bin config: unknown replenish policy " +
                          std::to_string(policy));
    if (c.credits.size() != bins)
        throw ckpt::Error("bin config: " +
                          std::to_string(c.credits.size()) +
                          " credits for " + std::to_string(bins) +
                          " bins");
    c.spec.numBins = static_cast<unsigned>(bins);
    c.spec.maxCredits = static_cast<std::uint32_t>(max_credits);
    c.spec.policy = static_cast<ReplenishPolicy>(policy);
    c.clamp();
}

MittsShaper::MittsShaper(std::string name, const BinConfig &cfg,
                         HybridMethod method)
    : cfg_(cfg), method_(method), credits_(cfg.credits),
      effCredits_(cfg.credits),
      rollingAcc_(cfg.spec.numBins, 0),
      nextReplenishAt_(cfg.spec.replenishPeriod),
      stats_(std::move(name)),
      issued_(stats_.addCounter("issued")),
      stalls_(stats_.addCounter("stall_cycles")),
      refunds_(stats_.addCounter("refunds")),
      deductions_(stats_.addCounter("deductions")),
      replenishes_(stats_.addCounter("replenishes")),
      dryDeductions_(stats_.addCounter("dry_deductions")),
      shapedHist_(stats_.addHistogram(
          "shaped_inter_arrival", cfg.spec.numBins,
          static_cast<double>(cfg.spec.intervalLength)))
{
    MITTS_ASSERT(cfg.spec.numBins <= kMaxBins, "more than ", kMaxBins,
                 " shaper bins");
    rebuildCreditMask();
}

void
MittsShaper::rebuildCreditMask()
{
    creditMask_ = 0;
    for (unsigned i = 0; i < credits_.size(); ++i) {
        if (credits_[i] > 0)
            creditMask_ |= std::uint64_t{1} << i;
    }
}

void
MittsShaper::setConfig(const BinConfig &cfg, Tick now)
{
    MITTS_ASSERT(cfg.credits.size() == cfg.spec.numBins &&
                     cfg.spec.numBins <= kMaxBins,
                 "bad bin config");
    const bool same_geometry = cfg.spec == cfg_.spec;
    cfg_ = cfg;
    cfg_.clamp();
    recomputeEffective();
    credits_ = effCredits_;
    rebuildCreditMask();
    rollingAcc_.assign(cfg_.spec.numBins, 0);
    if (!same_geometry) {
        // Geometry change invalidates outstanding bookkeeping.
        pendingBin_.clear();
        pendingStamp_.clear();
    }
    // Credits were just reset to K_i, exactly as after a replenish,
    // so the schedule restarts here: next replenish one full (new)
    // period after the reconfiguration. Keeping the old deadline
    // instead would let a shrunken T_r starve the shaper until the
    // stale (longer) deadline passed.
    lastReplenishAt_ = now;
    nextReplenishAt_ = now + cfg_.spec.replenishPeriod;
    if (trace_)
        trace_->instant(traceTrack_, "shaper", "reconfig", now);
}

void
MittsShaper::registerTelemetry(telemetry::Telemetry &t)
{
    probes_.release();
    probes_.attach(&t.probes());
    const std::string prefix = stats_.name() + ".";
    using telemetry::ProbeKind;
    probes_.add(prefix + "issued", ProbeKind::Counter,
                [this](Tick) {
                    return static_cast<double>(issued_.value());
                });
    probes_.add(prefix + "stall_cycles", ProbeKind::Counter,
                [this](Tick) {
                    return static_cast<double>(stalls_.value());
                });
    probes_.add(prefix + "deductions", ProbeKind::Counter,
                [this](Tick) {
                    return static_cast<double>(deductions_.value());
                });
    probes_.add(prefix + "replenishes", ProbeKind::Counter,
                [this](Tick) {
                    return static_cast<double>(replenishes_.value());
                });
    for (unsigned i = 0; i < cfg_.spec.numBins; ++i) {
        probes_.add(prefix + "bin" + std::to_string(i) + "_credits",
                    ProbeKind::Gauge, [this, i](Tick) {
                        return i < credits_.size()
                                   ? static_cast<double>(credits_[i])
                                   : 0.0;
                    });
    }
    for (const auto &[tag, p] :
         {std::pair<const char *, double>{"p50", 0.50},
          {"p95", 0.95},
          {"p99", 0.99}}) {
        probes_.add(prefix + "shaped_inter_arrival_" + tag,
                    ProbeKind::Gauge, [this, p = p](Tick) {
                        return shapedHist_.percentile(p);
                    });
    }
    if (t.trace()) {
        trace_ = t.trace();
        traceTrack_ = trace_->track(stats_.name());
    }
}

void
MittsShaper::recomputeEffective()
{
    effCredits_.resize(cfg_.spec.numBins);
    for (unsigned i = 0; i < cfg_.spec.numBins; ++i) {
        effCredits_[i] = static_cast<std::uint32_t>(
            static_cast<double>(cfg_.credits[i]) * congestionScale_ +
            0.5);
    }
}

void
MittsShaper::setCongestionScale(double scale)
{
    congestionScale_ = std::clamp(scale, 0.0, 1.0);
    recomputeEffective();
    // Clamp live counters so an in-progress period also scales down.
    for (unsigned i = 0; i < cfg_.spec.numBins; ++i)
        credits_[i] = std::min(credits_[i], effCredits_[i]);
    rebuildCreditMask();
}

void
MittsShaper::replenishIfDue(Tick now)
{
    if (cfg_.spec.policy == ReplenishPolicy::Rolling) {
        // Continuous accrual: bin i gains K_i / T_r credits per
        // cycle, capped at K_i, held exactly as whole credits plus a
        // remainder in units of 1/T_r credit. Any split of a gap
        // accrues the same, so the lazy catch-up at issue points is
        // exact.
        if (now <= lastReplenishAt_)
            return;
        const Tick period = cfg_.spec.replenishPeriod;
        const Tick elapsed = now - lastReplenishAt_;
        lastReplenishAt_ = now;
        for (unsigned i = 0; i < cfg_.spec.numBins; ++i) {
            const std::uint32_t k = effectiveK(i);
            const std::uint64_t acc =
                rollingAcc_[i] + std::uint64_t{k} * (elapsed % period);
            rollingAcc_[i] = acc % period;
            // A whole period refills the bin to its cap on its own.
            const std::uint64_t gained =
                acc / period + (elapsed >= period ? k : 0);
            credits_[i] = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(k, credits_[i] + gained));
            if (credits_[i] > 0)
                creditMask_ |= std::uint64_t{1} << i;
        }
        return;
    }

    // Algorithm 1: when T_c reaches T_r, reset every bin to K_i.
    // Lazy evaluation (catch up over idle gaps) is behaviourally
    // identical because credits are only observed at issue points.
    if (now < nextReplenishAt_)
        return;
    const Tick period = cfg_.spec.replenishPeriod;
    const Tick periods_behind = (now - nextReplenishAt_) / period + 1;
    nextReplenishAt_ += periods_behind * period;
    credits_ = effCredits_;
    rebuildCreditMask();
    replenishes_.inc(periods_behind);
    if (trace_)
        trace_->instant(traceTrack_, "shaper", "replenish", now);
}

int
MittsShaper::eligibleBin(unsigned bin) const
{
    // Highest set bit at or below `bin`.
    const std::uint64_t below =
        creditMask_ & (bin >= 63 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << (bin + 1)) - 1);
    if (below == 0)
        return -1;
    return 63 - std::countl_zero(below);
}

Tick
MittsShaper::nextIssueTick(Tick now) const
{
    if (!enabled_)
        return now + 1;
    // Eligibility only changes as the growing inter-arrival time
    // reaches a credited bin: a credit in bin i admits the head once
    // now' - lastIssueAt_ >= i * L (any bin admits the very first
    // request). Refunds and congestion rescaling happen on executed
    // cycles and trigger recomputation.
    const auto opens = [&](unsigned i) {
        if (lastIssueAt_ == kTickNever)
            return now + 1;
        return std::max(lastIssueAt_ + i * cfg_.spec.intervalLength,
                        now + 1);
    };

    if (cfg_.spec.policy == ReplenishPolicy::Rolling) {
        // Bin i next holds a credit once its remainder reaches T_r
        // (units of 1/T_r credit, K_i gained per cycle); the earliest
        // bin that holds a credit and is open wakes the head.
        Tick wake = kTickNever;
        for (unsigned i = 0; i < cfg_.spec.numBins; ++i) {
            Tick at = now + 1;
            if (credits_[i] == 0) {
                if (effectiveK(i) == 0)
                    continue;
                at = lastReplenishAt_ +
                     divCeil(cfg_.spec.replenishPeriod - rollingAcc_[i],
                             effectiveK(i));
            }
            wake = std::min(wake, std::max(at, opens(i)));
        }
        return wake;
    }

    // Reset policy: while blocked, credits only change at the next
    // replenish deadline, which must be an executed cycle so the lazy
    // catch-up, the replenish counter and the trace instant land
    // exactly where the per-cycle kernel puts them. The smallest
    // credited bin opens earliest.
    Tick wake = std::max(nextReplenishAt_, now + 1);
    if (creditMask_ != 0) {
        wake = std::min(
            wake, opens(static_cast<unsigned>(
                      std::countr_zero(creditMask_))));
    }
    return wake;
}

bool
MittsShaper::tryIssue(MemRequest &req, Tick now)
{
    if (!enabled_)
        return true;
    replenishIfDue(now);

    // Inter-arrival time since the previous issued request; the very
    // first request is treated as maximally spaced.
    const Tick t = lastIssueAt_ == kTickNever
                       ? cfg_.spec.numBins * cfg_.spec.intervalLength
                       : now - lastIssueAt_;
    const unsigned bin = cfg_.spec.binOf(t);
    const int take = eligibleBin(bin);

    if (take < 0) {
        stalls_.inc();
        if (trace_ && throttleStart_ == kTickNever)
            throttleStart_ = now;
        return false;
    }
    if (trace_ && throttleStart_ != kTickNever) {
        trace_->duration(traceTrack_, "shaper", "throttled",
                         throttleStart_, now);
        throttleStart_ = kTickNever;
    }

    if (method_ == HybridMethod::ConservativeRefund) {
        // Deduct now, refund on LLC hit.
        if (--credits_[static_cast<unsigned>(take)] == 0)
            creditMask_ &= ~(std::uint64_t{1} << take);
        deductions_.inc();
        pendingBin_[pendingKey(req)] = static_cast<unsigned>(take);
    } else {
        // Method 1: gate on (stale) counters, deduct on LLC miss.
        pendingStamp_[pendingKey(req)] = now;
    }

    issued_.inc();
    shapedHist_.sample(static_cast<double>(t));
    lastIssueAt_ = now;
    return true;
}

void
MittsShaper::onLlcResponse(const MemRequest &req, bool hit, Tick now)
{
    if (!enabled_)
        return;
    replenishIfDue(now);

    if (method_ == HybridMethod::ConservativeRefund) {
        auto it = pendingBin_.find(pendingKey(req));
        if (it == pendingBin_.end())
            return; // reconfigured mid-flight
        if (hit) {
            // Add the credit back to the bin it came from, bounded by
            // the replenish value (register width semantics).
            const unsigned bin = it->second;
            if (credits_[bin] < effectiveK(bin)) {
                ++credits_[bin];
                creditMask_ |= std::uint64_t{1} << bin;
                refunds_.inc();
            }
        }
        pendingBin_.erase(it);
        return;
    }

    // Method 1: on a confirmed LLC miss, deduct using the spacing
    // between consecutive LLC misses.
    auto it = pendingStamp_.find(pendingKey(req));
    if (it == pendingStamp_.end())
        return;
    const Tick stamp = it->second;
    pendingStamp_.erase(it);
    if (hit)
        return;
    const Tick t = lastLlcMissStamp_ == kTickNever
                       ? cfg_.spec.numBins * cfg_.spec.intervalLength
                       : (stamp > lastLlcMissStamp_
                              ? stamp - lastLlcMissStamp_
                              : 0);
    lastLlcMissStamp_ = stamp;
    deductForMiss(t);
}

void
MittsShaper::deductForMiss(Tick inter_arrival)
{
    const unsigned bin = cfg_.spec.binOf(inter_arrival);
    int take = eligibleBin(bin);
    if (take < 0) {
        // Aggressive issue already happened; charge the nearest bin
        // above the observed inter-arrival instead (smallest i > bin
        // with credits) — the cheapest over-spaced credit whose
        // interval still covers this spacing — or record the loss.
        const std::uint64_t above =
            bin >= 63
                ? 0
                : creditMask_ & ~((std::uint64_t{1} << (bin + 1)) - 1);
        if (above != 0)
            take = std::countr_zero(above);
    }
    if (take >= 0) {
        if (--credits_[static_cast<unsigned>(take)] == 0)
            creditMask_ &= ~(std::uint64_t{1} << take);
        deductions_.inc();
    } else {
        dryDeductions_.inc();
    }
}

std::size_t
MittsShaper::hardwareStateBytes() const
{
    const unsigned n = cfg_.spec.numBins;
    // Per bin: a 10-bit credit register and a 10-bit replenish
    // register; plus T_c/T_r counters, the last-issue counter, and an
    // 8-entry pending table holding a bin index (or timestamp) each.
    const std::size_t bin_bits = 2 * n * 10;
    const std::size_t counters_bits = 3 * 32;
    const std::size_t pending_bits =
        8 * (method_ == HybridMethod::ConservativeRefund ? 4 : 32);
    return (bin_bits + counters_bits + pending_bits + 7) / 8;
}

void
MittsShaper::checkpoint(ckpt::Archive &a)
{
    // The live BinConfig: setConfig (the GA, phase switcher) mutates
    // it mid-run, so it is state, not configuration.
    binConfig(a, cfg_);
    const unsigned bins = cfg_.spec.numBins;
    a.b(enabled_);
    a.vecU32(credits_);
    a.vecU32(effCredits_);
    a.vecU64(rollingAcc_);
    a.check(credits_.size() == bins && effCredits_.size() == bins &&
                rollingAcc_.size() == bins,
            "shaper bin count mismatch");
    for (std::uint64_t acc : rollingAcc_)
        a.check(acc < cfg_.spec.replenishPeriod,
                "shaper rolling remainder out of range");
    if (!a.saving())
        rebuildCreditMask();
    a.f64(congestionScale_);
    a.u64(nextReplenishAt_);
    a.u64(lastReplenishAt_);
    a.u64(lastIssueAt_);
    a.sortedMap(pendingBin_, [&](unsigned &bin) {
        a.index(bin, bins, "shaper pending bin");
    });
    a.sortedMap(pendingStamp_, [&](Tick &t) { a.u64(t); });
    a.u64(lastLlcMissStamp_);
    a.u64(throttleStart_);
    a.group(stats_);
}

} // namespace mitts

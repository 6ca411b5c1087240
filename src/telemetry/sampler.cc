#include "telemetry/sampler.hh"

#include <cmath>
#include <unordered_map>

#include "base/logging.hh"

namespace mitts::telemetry
{

namespace
{

/** Print integral values without a decimal point so counter deltas
 *  stay exact in the CSV. */
void
writeValue(std::ostream &os, double v)
{
    if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
        os << static_cast<long long>(v);
    } else {
        os << v;
    }
}

} // namespace

TimeSeriesSampler::TimeSeriesSampler(ProbeRegistry &registry,
                                     const SamplerOptions &opts,
                                     std::ostream *out)
    : Clocked("telemetry.sampler"), registry_(registry), opts_(opts),
      out_(out), ring_(opts.ringWindows),
      nextBoundary_(opts.interval)
{
    MITTS_ASSERT(opts.interval > 0, "sampler interval must be > 0");
    MITTS_ASSERT(opts.ringWindows > 0, "sampler ring must hold >= 1");
}

void
TimeSeriesSampler::tick(Tick now)
{
    if (now < nextBoundary_)
        return;
    closeWindow(now);
    nextBoundary_ = now + opts_.interval;
}

void
TimeSeriesSampler::finalize(Tick now)
{
    if (now > windowStart_)
        closeWindow(now);
    flush();
}

void
TimeSeriesSampler::syncProbes()
{
    const std::uint64_t v = registry_.version();
    if (v == seenVersion_)
        return;
    // The ring may hold windows recorded against the old probe set;
    // flush them before the column meaning changes.
    flush();
    std::unordered_map<ProbeId, double> carried;
    for (std::size_t i = 0; i < probes_.size(); ++i)
        carried.emplace(probes_[i].id, lastValue_[i]);
    probes_ = registry_.snapshot();
    lastValue_.assign(probes_.size(), 0.0);
    for (std::size_t i = 0; i < probes_.size(); ++i) {
        if (auto it = carried.find(probes_[i].id); it != carried.end())
            lastValue_[i] = it->second;
    }
    seenVersion_ = v;
}

void
TimeSeriesSampler::closeWindow(Tick end)
{
    syncProbes();
    Window &w = ring_[ringCount_++];
    w.start = windowStart_;
    w.end = end;
    w.values.resize(probes_.size());
    for (std::size_t i = 0; i < probes_.size(); ++i) {
        const double v = probes_[i].read ? probes_[i].read(end) : 0.0;
        if (probes_[i].kind == ProbeKind::Counter) {
            w.values[i] = v - lastValue_[i];
            lastValue_[i] = v;
        } else {
            w.values[i] = v;
        }
    }
    windowStart_ = end;
    ++windowsClosed_;
    if (ringCount_ == ring_.size())
        flush();
}

void
TimeSeriesSampler::writeHeader()
{
    if (headerWritten_ || !out_)
        return;
    *out_ << "window_start,window_end,probe,kind,value\n";
    headerWritten_ = true;
}

void
TimeSeriesSampler::flush()
{
    if (ringCount_ == 0)
        return;
    if (out_) {
        writeHeader();
        for (std::size_t r = 0; r < ringCount_; ++r) {
            const Window &w = ring_[r];
            for (std::size_t i = 0; i < probes_.size(); ++i) {
                *out_ << w.start << "," << w.end << ","
                      << probes_[i].name << ","
                      << (probes_[i].kind == ProbeKind::Counter
                              ? "counter"
                              : "gauge")
                      << ",";
                writeValue(*out_, w.values[i]);
                *out_ << "\n";
            }
        }
        out_->flush();
    }
    ringCount_ = 0;
}

void
TimeSeriesSampler::saveState(ckpt::Writer &w) const
{
    w.u64(probes_.size());
    for (const auto &p : probes_)
        w.str(p.name);
    w.vecF64(lastValue_);
    w.u64(ringCount_);
    for (std::size_t i = 0; i < ringCount_; ++i) {
        w.u64(ring_[i].start);
        w.u64(ring_[i].end);
        w.vecF64(ring_[i].values);
    }
    w.u64(windowStart_);
    w.u64(nextBoundary_);
    w.u64(windowsClosed_);
    w.b(headerWritten_);
}

void
TimeSeriesSampler::loadState(ckpt::Reader &r)
{
    const std::uint64_t n = r.u64();
    std::vector<std::string> names(n);
    for (auto &name : names)
        name = r.str();
    if (n == 0) {
        // Never synced in the saved run; stay unsynced here too.
        probes_.clear();
        seenVersion_ = ~0ull;
    } else {
        // The rebuilt components must have registered the identical
        // probe set; adopt it and verify by name.
        probes_ = registry_.snapshot();
        if (probes_.size() != n)
            throw ckpt::Error("telemetry probe count mismatch");
        for (std::size_t i = 0; i < n; ++i) {
            if (probes_[i].name != names[i])
                throw ckpt::Error("telemetry probe name mismatch: " +
                                  probes_[i].name + " vs " +
                                  names[i]);
        }
        seenVersion_ = registry_.version();
    }
    lastValue_ = r.vecF64();
    if (lastValue_.size() != n)
        throw ckpt::Error("telemetry delta base count mismatch");
    ringCount_ = static_cast<std::size_t>(r.u64());
    if (ringCount_ > ring_.size())
        throw ckpt::Error("telemetry ring overflow in checkpoint");
    for (std::size_t i = 0; i < ringCount_; ++i) {
        ring_[i].start = r.u64();
        ring_[i].end = r.u64();
        ring_[i].values = r.vecF64();
    }
    windowStart_ = r.u64();
    nextBoundary_ = r.u64();
    windowsClosed_ = static_cast<std::size_t>(r.u64());
    headerWritten_ = r.b();
}

} // namespace mitts::telemetry

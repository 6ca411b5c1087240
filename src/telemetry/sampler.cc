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
TimeSeriesSampler::checkpoint(ckpt::Archive &a)
{
    std::uint64_t n = probes_.size();
    a.u64(n);
    std::vector<std::string> names;
    for (std::uint64_t i = 0; i < n; ++i)
        a.str(a.saving() ? probes_[i].name : names.emplace_back());
    if (!a.saving() && n == 0) {
        // Never synced in the saved run; stay unsynced here too.
        probes_.clear();
        seenVersion_ = ~0ull;
    } else if (!a.saving()) {
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
    a.vecF64(lastValue_);
    a.check(lastValue_.size() == n,
            "telemetry delta base count mismatch");
    a.narrow(ringCount_, "telemetry ring count");
    a.check(ringCount_ <= ring_.size(),
            "telemetry ring overflow in checkpoint");
    for (std::size_t i = 0; i < ringCount_; ++i) {
        a.u64(ring_[i].start);
        a.u64(ring_[i].end);
        a.vecF64(ring_[i].values);
    }
    a.u64(windowStart_);
    a.u64(nextBoundary_);
    a.narrow(windowsClosed_, "telemetry window count");
    a.b(headerWritten_);
}

} // namespace mitts::telemetry

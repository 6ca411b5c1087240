/**
 * @file
 * Cycle-windowed time-series sampling of registered probes.
 *
 * The sampler is a Clocked component (registered first, so a window
 * closes at the boundary cycle before any component has ticked it).
 * Every `interval` cycles it reads all probes into a preallocated
 * ring of window records; a full ring — and the partial last window
 * at finalize() — is flushed as long-format CSV:
 *
 *   window_start,window_end,probe,kind,value
 *
 * Counter probes report the per-window delta, so summing a probe's
 * column across all windows reproduces the end-of-run aggregate.
 */

#ifndef MITTS_TELEMETRY_SAMPLER_HH
#define MITTS_TELEMETRY_SAMPLER_HH

#include <algorithm>
#include <ostream>
#include <vector>

#include "ckpt/serialize.hh"
#include "sim/clocked.hh"
#include "telemetry/probe.hh"

namespace mitts::telemetry
{

struct SamplerOptions
{
    Tick interval = 10'000;      ///< cycles per window
    std::size_t ringWindows = 256; ///< windows buffered before flush
};

class TimeSeriesSampler : public Clocked, public ckpt::Serializable
{
  public:
    /**
     * @param out  CSV sink; may be null (sampling still runs, useful
     *             for overhead measurements and tests that only care
     *             about determinism).
     */
    TimeSeriesSampler(ProbeRegistry &registry,
                      const SamplerOptions &opts, std::ostream *out);

    void tick(Tick now) override;

    /** Windows only close at interval boundaries. */
    Tick
    nextWakeTick(Tick now) const override
    {
        return std::max(nextBoundary_, now + 1);
    }

    /**
     * Close the partial window [lastBoundary, now) — if any cycles
     * elapsed since the last boundary — and flush the ring.
     * Idempotent for a given `now`.
     */
    void finalize(Tick now);

    std::size_t windowsClosed() const { return windowsClosed_; }
    Tick interval() const { return opts_.interval; }

  protected:
    /**
     * Checkpoint the window machinery: cached probe names (identity
     * check on restore — the rebuilt system must register the same
     * probe set), per-probe delta bases and the unflushed ring.
     * The already-flushed CSV text is the Telemetry hub's problem.
     */
    void checkpoint(ckpt::Archive &a) override;

  private:
    struct Window
    {
        Tick start = 0;
        Tick end = 0;
        std::vector<double> values;
    };

    void syncProbes();
    void closeWindow(Tick end);
    void flush();
    void writeHeader();

    ProbeRegistry &registry_;
    // detlint-transient(construction-time config; never mutated after build)
    SamplerOptions opts_;
    std::ostream *out_;

    /** Cached probe set; refreshed only when the registry version
     *  moves (the lock-free common case). */
    std::vector<Probe> probes_;
    // registry-version cache; re-derived on restore
    std::uint64_t seenVersion_ = ~0ull;
    /** Previous raw value per cached probe (delta base; counters
     *  start from 0 so window sums equal aggregates). */
    std::vector<double> lastValue_;

    std::vector<Window> ring_;
    std::size_t ringCount_ = 0;

    Tick windowStart_ = 0;
    Tick nextBoundary_;
    std::size_t windowsClosed_ = 0;
    bool headerWritten_ = false;
};

} // namespace mitts::telemetry

#endif // MITTS_TELEMETRY_SAMPLER_HH

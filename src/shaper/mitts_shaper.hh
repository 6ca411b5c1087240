/**
 * @file
 * The MITTS per-core hardware traffic shaper (paper Sec. III).
 *
 * Models exactly the state the taped-out RTL holds: a credit register
 * per bin, a replenish-value register per bin, the T_c/T_r counters,
 * the last-issue timestamp, and the small pending table used by the
 * hybrid L1/LLC placement. Two reconciliation methods are modelled:
 *
 *  - Method 1 (SpeculativeTimestamp): issue is gated only by the
 *    (possibly stale) credit counters; credits are deducted when the
 *    LLC confirms a miss, using timestamps between consecutive LLC
 *    misses. Slightly aggressive.
 *  - Method 2 (ConservativeRefund, the one fabricated in the 25-core
 *    chip): a credit is deducted for every L1 miss at issue and
 *    refunded if the LLC reports a hit.
 */

#ifndef MITTS_SHAPER_MITTS_SHAPER_HH
#define MITTS_SHAPER_MITTS_SHAPER_HH

#include <unordered_map>

#include "base/stats.hh"
#include "cache/interfaces.hh"
#include "ckpt/serialize.hh"
#include "shaper/bin_config.hh"
#include "telemetry/probe.hh"

namespace mitts
{

namespace telemetry
{
class Telemetry;
class TraceEventWriter;
} // namespace telemetry

/** Credit reconciliation scheme for the hybrid placement (Fig. 7). */
enum class HybridMethod
{
    SpeculativeTimestamp, ///< method 1
    ConservativeRefund,   ///< method 2 (taped out)
};

class MittsShaper : public SourceGate, public ckpt::Serializable
{
  public:
    MittsShaper(std::string name, const BinConfig &cfg,
                HybridMethod method = HybridMethod::ConservativeRefund);

    /**
     * Reconfigure the replenish registers (what the OS/hypervisor or
     * the genetic algorithm writes). Takes effect immediately: current
     * credits are reset to the new K_i, as after a replenish, and the
     * replenish schedule restarts at `now` (one full new period out),
     * so a changed T_r is observed immediately rather than after the
     * stale deadline.
     */
    void setConfig(const BinConfig &cfg, Tick now = 0);
    const BinConfig &config() const { return cfg_; }

    /** Enable/disable shaping entirely (disabled = pass-through). */
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    // SourceGate
    bool tryIssue(MemRequest &req, Tick now) override;
    void onLlcResponse(const MemRequest &req, bool hit,
                       Tick now) override;
    Tick nextIssueTick(Tick now) const override;
    void onSkippedStalls(Tick cycles) override
    {
        stalls_.inc(cycles);
    }

    /** Current credits in bin i (testing / introspection). */
    std::uint32_t credits(unsigned i) const { return credits_[i]; }

    /** Force a replenish check (normally lazy inside tryIssue). */
    void replenishIfDue(Tick now);

    /**
     * Global congestion scale factor in (0, 1]: replenish values are
     * multiplied by it (paper Sec. III-C future work; driven by the
     * CongestionController).
     */
    void setCongestionScale(double scale);
    double congestionScale() const { return congestionScale_; }

    HybridMethod method() const { return method_; }

    stats::Group &statsGroup() { return stats_; }
    std::uint64_t issued() const { return issued_.value(); }
    std::uint64_t stallCycles() const { return stalls_.value(); }
    std::uint64_t refunds() const { return refunds_.value(); }

    /** Histogram of shaped (post-gate) inter-arrival times. */
    const stats::Histogram &shapedInterArrival() const
    {
        return shapedHist_;
    }

    /**
     * Register time-series probes (per-bin credit levels, issue /
     * stall / deduction counters, shaped inter-arrival percentiles)
     * and, when trace events are enabled, a viewer track emitting
     * throttle-interval durations plus replenish/reconfig instants.
     */
    void registerTelemetry(telemetry::Telemetry &t);

    /**
     * Bytes of architectural state this configuration implies
     * (credit + replenish registers, counters, pending table); the
     * C++ analogue of the paper's 0.0035 mm^2 area discussion.
     */
    std::size_t hardwareStateBytes() const;

  protected:
    /** Checkpoint credits, replenish schedule, pending tables, the
     *  live BinConfig (it changes under setConfig) and stats. */
    void checkpoint(ckpt::Archive &a) override;

  private:
    /** Largest-interval non-empty bin with index <= `bin`, or -1. */
    int eligibleBin(unsigned bin) const;
    void deductForMiss(Tick inter_arrival);
    void recomputeEffective();
    std::uint32_t effectiveK(unsigned i) const
    {
        return effCredits_[i];
    }

    /** Recompute creditMask_ from credits_ (bulk credit updates). */
    void rebuildCreditMask();

    BinConfig cfg_;
    // detlint-transient(hybrid method fixed at construction)
    HybridMethod method_;
    bool enabled_ = true;

    std::vector<std::uint32_t> credits_; ///< n_i registers
    std::vector<std::uint32_t> effCredits_; ///< K_i x congestion scale
    /**
     * Occupancy index over credits_: bit i set iff credits_[i] > 0,
     * maintained at every credit mutation. eligibleBin() and the
     * smallest-credited-bin probe in nextIssueTick() — both on the
     * per-request hot path — become single bit-scan instructions.
     * One word covers every bin: a shaper has at most kMaxBins (64;
     * the paper uses 10).
     */
    // derived cache; rebuilt by rebuildCreditMask() on restore
    std::uint64_t creditMask_ = 0;
    /** Rolling policy: per-bin accrued fraction of the next credit,
     *  in units of 1/T_r credit (always < T_r). */
    std::vector<std::uint64_t> rollingAcc_;
    double congestionScale_ = 1.0;
    Tick nextReplenishAt_;
    Tick lastReplenishAt_ = 0;
    Tick lastIssueAt_ = kTickNever;      ///< no request seen yet

    /**
     * Pending-table key. A shaper may be shared by several cores
     * (threaded applications, Sec. IV-H), whose sequence numbers are
     * only unique per core.
     */
    static std::uint64_t
    pendingKey(const MemRequest &req)
    {
        return (static_cast<std::uint64_t>(req.core + 1) << 48) ^
               req.seq;
    }

    /** Method 2: request -> bin a credit was taken from. */
    std::unordered_map<std::uint64_t, unsigned> pendingBin_;
    /** Method 1: request -> issue timestamp (tag-indexed table). */
    std::unordered_map<std::uint64_t, Tick> pendingStamp_;
    Tick lastLlcMissStamp_ = kTickNever;

    // Telemetry (null/empty unless registerTelemetry was called).
    // detlint-transient(probe wiring re-registered on rebuild, not state)
    telemetry::ProbeOwner probes_;
    telemetry::TraceEventWriter *trace_ = nullptr;
    // detlint-transient(trace-track id re-registered on rebuild)
    int traceTrack_ = 0;
    Tick throttleStart_ = kTickNever; ///< open dry-stall episode

    stats::Group stats_;
    stats::Counter &issued_;
    stats::Counter &stalls_;
    stats::Counter &refunds_;
    stats::Counter &deductions_;
    stats::Counter &replenishes_;
    stats::Counter &dryDeductions_; ///< method-1 deduct w/o credits
    stats::Histogram &shapedHist_;
};

} // namespace mitts

#endif // MITTS_SHAPER_MITTS_SHAPER_HH

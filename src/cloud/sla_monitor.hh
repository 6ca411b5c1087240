/**
 * @file
 * Per-socket SLA monitor. A Clocked component registered after the
 * memory controller, waking only at window boundaries. For every core
 * slot with a resident tenant it derives, from end-of-window deltas:
 *
 *  - the window's p99 memory latency, from the memory controller's
 *    per-core latency histogram (bucket deltas restored into a
 *    scratch Histogram, then percentile(0.99)), checked against the
 *    tenant's SLA bound;
 *  - the achieved bandwidth in GB/s, checked against the tenant's
 *    floor — but only for windows where the slot's shaper actually
 *    throttled (shaper-stall fraction above a scenario threshold):
 *    a tenant whose requests were never held back was not denied
 *    bandwidth, however little it consumed, and a latency-bound
 *    workload is not misread as a provider-side shortfall.
 *
 * Violations accumulate in per-core counters; the engine snapshots
 * them at admission and reads the deltas at departure to attribute
 * violations per tenant. Telemetry probes per slot (tenant id,
 * violation counters, p99/GBps gauges) let the CSV post-processor
 * group windows by tenant.
 */

#ifndef MITTS_CLOUD_SLA_MONITOR_HH
#define MITTS_CLOUD_SLA_MONITOR_HH

#include <cstdint>
#include <vector>

#include "base/stats.hh"
#include "ckpt/serialize.hh"
#include "sim/clocked.hh"
#include "telemetry/probe.hh"

namespace mitts
{
class System;

namespace telemetry
{
class Telemetry;
}

namespace cloud
{

class SlaMonitor : public Clocked, public ckpt::Serializable
{
  public:
    /** `sys` must outlive the monitor and have been built with
     *  mc.latencyHistograms enabled. */
    SlaMonitor(System &sys, Tick window_cycles,
               double demand_stall_fraction);

    /** Bind a tenant's SLA to core `c` (slot must be free). */
    void occupy(CoreId c, std::uint64_t tenant_id, double p99_bound,
                double min_gbps);
    /** Update the bound mid-residency (tier change). */
    void updateSla(CoreId c, double p99_bound, double min_gbps);
    /** Unbind (slot must be occupied). */
    void vacate(CoreId c);

    bool occupied(CoreId c) const { return slots_[c].occupied; }
    std::uint64_t tenantId(CoreId c) const
    {
        return slots_[c].tenantId;
    }

    std::uint64_t windowsObserved(CoreId c) const
    {
        return windows_[c]->value();
    }
    std::uint64_t latencyViolations(CoreId c) const
    {
        return latViolations_[c]->value();
    }
    std::uint64_t bandwidthViolations(CoreId c) const
    {
        return bwViolations_[c]->value();
    }

    /** Last closed window's measurements (telemetry gauges). */
    double lastP99(CoreId c) const { return slots_[c].lastP99; }
    double lastGBps(CoreId c) const { return slots_[c].lastGBps; }

    stats::Group &statsGroup() { return stats_; }

    /** Export per-slot probes ("sla.coreN.*"). */
    void registerTelemetry(telemetry::Telemetry &t);

    // Clocked
    void tick(Tick now) override;
    Tick nextWakeTick(Tick now) const override;

  protected:
    // ckpt::Serializable
    void checkpoint(ckpt::Archive &a) override;

  private:
    struct Slot
    {
        bool occupied = false;
        std::uint64_t tenantId = 0;
        double p99Bound = 0.0;
        double minGBps = 0.0;
        double lastP99 = 0.0;
        double lastGBps = 0.0;
    };

    /** End-of-last-window snapshot for delta extraction. */
    struct CoreSnapshot
    {
        std::vector<std::uint64_t> histBins;
        std::uint64_t histUnderflow = 0;
        std::uint64_t histOverflow = 0;
        std::uint64_t histTotal = 0;
        double histSum = 0.0;
        std::uint64_t completed = 0;
        std::uint64_t shaperStall = 0;
    };

    void closeWindow(Tick now);

    System &sys_;
    const Tick window_;
    const double demandStallFraction_;

    std::vector<Slot> slots_;
    std::vector<CoreSnapshot> prev_;

    stats::Group stats_;
    std::vector<stats::Counter *> windows_;
    std::vector<stats::Counter *> latViolations_;
    std::vector<stats::Counter *> bwViolations_;

    // detlint-transient(probe wiring re-registered on rebuild, not state)
    telemetry::ProbeOwner probes_;
};

} // namespace cloud
} // namespace mitts

#endif // MITTS_CLOUD_SLA_MONITOR_HH

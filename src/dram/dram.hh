/**
 * @file
 * Transaction-level DRAM channel timing model (DRAMSim2-lite).
 *
 * Per-bank row-buffer state machines plus a shared data bus. The
 * memory controller asks canIssue() for each candidate transaction and
 * calls issue() on the scheduler's pick; issue() returns the tick at
 * which the data burst completes.
 */

#ifndef MITTS_DRAM_DRAM_HH
#define MITTS_DRAM_DRAM_HH

#include <cstdint>
#include <vector>

#include "base/stats.hh"
#include "base/types.hh"
#include "ckpt/serialize.hh"
#include "dram/dram_config.hh"
#include "telemetry/probe.hh"

namespace mitts
{

namespace telemetry
{
class Telemetry;
class TraceEventWriter;
} // namespace telemetry

/** Row-buffer outcome of a would-be access. */
enum class RowState
{
    Hit,     ///< row open and matching
    Closed,  ///< bank precharged, needs activate
    Conflict ///< different row open, needs precharge + activate
};

/** One DDR3 channel: 8 banks, one shared data bus, refresh. */
class Dram : public ckpt::Serializable
{
  public:
    explicit Dram(const DramConfig &cfg);

    const DramConfig &config() const { return cfg_; }

    /** Row-buffer state the access would see right now. */
    RowState rowState(const DramCoord &c) const;
    RowState
    rowState(Addr block_addr) const
    {
        return rowState(mapAddress(block_addr, cfg_));
    }

    /** True iff the access would be a row-buffer hit. */
    bool
    isRowHit(const DramCoord &c) const
    {
        return rowState(c) == RowState::Hit;
    }
    bool
    isRowHit(Addr block_addr) const
    {
        return rowState(block_addr) == RowState::Hit;
    }

    /**
     * May a transaction to this address legally start at `now`?
     * Enforces bank busy, tRAS/tWR before precharge, tRRD/tFAW
     * activate spacing, refresh blocking, and bounded bus backlog.
     * The DramCoord overloads take a pre-decomposed address (the
     * controller's SoA queue caches it at enqueue).
     */
    bool canIssue(const DramCoord &c, bool is_write, Tick now) const;
    bool
    canIssue(Addr block_addr, bool is_write, Tick now) const
    {
        return canIssue(mapAddress(block_addr, cfg_), is_write, now);
    }

    /**
     * Start the transaction (caller must have checked canIssue).
     * @return tick at which the data burst completes.
     */
    Tick issue(const DramCoord &c, bool is_write, Tick now);
    Tick
    issue(Addr block_addr, bool is_write, Tick now)
    {
        return issue(mapAddress(block_addr, cfg_), is_write, now);
    }

    /** Advance refresh logic; call once per CPU cycle. */
    void tick(Tick now);

    /** True iff the channel is refresh-blocked at `now`. */
    bool refreshing(Tick now) const { return now < refBlockUntil_; }

    /** Next tick at which tick() does anything: the refresh deadline
     *  (kTickNever when refresh is disabled). */
    Tick nextRefreshTick() const { return nextRefreshAt_; }

    /**
     * Earliest tick >= `from` at which canIssue() for this
     * transaction holds, assuming no intervening issues or refreshes
     * (both happen on executed cycles and trigger recomputation).
     * Exact: every canIssue constraint is a monotone lower bound on
     * the issue tick, so canIssue(c, w, t) for t >= from holds
     * exactly when t >= earliestIssueTick(c, w, from).
     */
    Tick earliestIssueTick(const DramCoord &c, bool is_write,
                           Tick from) const;
    Tick
    earliestIssueTick(Addr block_addr, bool is_write, Tick from) const
    {
        return earliestIssueTick(mapAddress(block_addr, cfg_),
                                 is_write, from);
    }

    stats::Group &statsGroup() { return stats_; }

    /**
     * Register time-series probes (row hit/miss/conflict counters,
     * busy-bank gauge) under `prefix` and, when tracing, a track
     * emitting row-conflict and refresh instants.
     */
    void registerTelemetry(telemetry::Telemetry &t,
                           const std::string &prefix);

    std::uint64_t rowHits() const { return rowHits_.value(); }
    std::uint64_t rowMisses() const { return rowMisses_.value(); }
    std::uint64_t rowConflicts() const { return rowConflicts_.value(); }

  protected:
    /** Checkpoint bank/bus/activate-window/refresh timing state. */
    void checkpoint(ckpt::Archive &a) override;

  private:
    bool activateAllowed(Tick at) const;
    void recordActivate(Tick at);
    Tick earliestActivate(Tick from, Tick precharge) const;

    // detlint-transient(construction-time config; never mutated after build)
    DramConfig cfg_;
    // Per-bank row-buffer state, structure-of-arrays: the controller's
    // quiescence scan probes earliestIssueTick() for every queued
    // transaction each wake evaluation, and that scan touches only
    // busyUntil/rowOpen/row for most banks — parallel vectors keep
    // those probes on dense cache lines instead of striding over
    // five-field structs.
    std::vector<std::uint8_t> bankRowOpen_;
    std::vector<std::uint64_t> bankRow_;
    std::vector<Tick> bankBusyUntil_;   ///< earliest next command
    std::vector<Tick> bankActivateAt_;  ///< for tRAS
    std::vector<Tick> bankWriteRecoverUntil_; ///< earliest precharge
                                              ///< after a write burst
    Tick busFreeAt_ = 0;
    std::vector<Tick> recentActivates_; ///< ring of last 4 ACT times
    std::size_t actHead_ = 0;
    std::size_t numActivates_ = 0;
    Tick lastActivate_ = 0;
    bool anyActivate_ = false;
    Tick nextRefreshAt_;
    Tick refBlockUntil_ = 0;

    // Telemetry (null/empty unless registerTelemetry was called).
    // detlint-transient(probe wiring re-registered on rebuild, not state)
    telemetry::ProbeOwner probes_;
    telemetry::TraceEventWriter *trace_ = nullptr;
    // detlint-transient(trace-track id re-registered on rebuild)
    int traceTrack_ = 0;

    stats::Group stats_;
    stats::Counter &rowHits_;
    stats::Counter &rowMisses_;
    stats::Counter &rowConflicts_;
    stats::Counter &refreshes_;
};

} // namespace mitts

#endif // MITTS_DRAM_DRAM_HH

/**
 * @file
 * The cloud-at-scale scenario engine: a datacenter of identical
 * sockets (each one cycle-accurate System) serving a seeded stream of
 * hundreds of tenants.
 *
 * Time advances in windows. At every window boundary the engine, in a
 * fixed order (departures, then arrivals, then diurnal re-modulation,
 * socket-major / core-minor within each), mutates the machines; in
 * between, each socket simulates one window with its own kernel.
 * Sockets are stepped sequentially, so the only parallelism is inside
 * a System — which is already bit-identical across MITTS_THREADS and
 * skip/no-skip — making the whole scenario deterministic by
 * construction.
 *
 * A free core slot is halted (its Core returns kTickNever) and its
 * shaper parked on a zero-credit config; admitting a tenant installs
 * the tenant's workload into the slot's CloudTrace, unhalts the core,
 * purchases the tier's BinConfig through the slot's permanent
 * iaas::Tenant (billing), and binds the tier's SLA in the socket's
 * SlaMonitor. AdmissionControl decides placement from closed-form
 * feasibility alone. A per-slot AutoScaler rule up/downgrades the
 * tier when the shaper stall fraction crosses scenario thresholds.
 *
 * Checkpoints: one <dir>/socketN.mitts per socket (the System's own
 * format, with monitor / scalers / slot tenants riding along as
 * extras) plus <dir>/cloud.mitts for the engine cursor, slots and
 * tenant records, guarded by scenarioHash().
 */

#ifndef MITTS_CLOUD_ENGINE_HH
#define MITTS_CLOUD_ENGINE_HH

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "cloud/admission.hh"
#include "cloud/cloud_trace.hh"
#include "cloud/marketplace.hh"
#include "cloud/population.hh"
#include "cloud/scenario.hh"
#include "cloud/sla_monitor.hh"
#include "iaas/tenant.hh"
#include "system/system.hh"

namespace mitts::cloud
{

/** Everything a scenario learns about one tenant, for reports. */
struct TenantRecord
{
    TenantSpec spec;

    bool admitted = false;
    bool departed = false;
    std::string reason; ///< admission verdict ("ok" or the check)
    int socket = -1;
    unsigned slot = 0;
    Tick admittedAt = 0;
    Tick departedAt = 0;

    unsigned finalTier = 0;
    unsigned upgrades = 0;
    unsigned downgrades = 0;

    double bill = 0.0;
    std::uint64_t windows = 0;
    std::uint64_t latencyViolations = 0;
    std::uint64_t bandwidthViolations = 0;

    /** Admission justification (closed-form numbers). */
    double aggDelayBoundCycles = 0.0;
    double analyticMeanLatency = 0.0;
};

class CloudEngine
{
  public:
    /** Validates `sc` (throws ScenarioError) and builds the
     *  datacenter. `out_dir` receives per-socket telemetry when the
     *  scenario enables it; empty keeps telemetry in memory. */
    explicit CloudEngine(const ScenarioConfig &sc,
                         std::string out_dir = "",
                         SimulationConfig sim_cfg = {});
    ~CloudEngine();

    CloudEngine(const CloudEngine &) = delete;
    CloudEngine &operator=(const CloudEngine &) = delete;

    /** Simulate up to `target` (clamped to the scenario duration;
     *  must be a window multiple). */
    void runUntil(Tick target);
    /** Simulate the full scenario duration. */
    void run() { runUntil(sc_.durationCycles); }

    Tick now() const { return now_; }
    const ScenarioConfig &scenario() const { return sc_; }
    const Marketplace &marketplace() const { return market_; }
    const AdmissionControl &admissionControl() const
    {
        return *admission_;
    }

    unsigned numSockets() const
    {
        return static_cast<unsigned>(sockets_.size());
    }
    System &socketSystem(unsigned si)
    {
        return *sockets_[si]->sys;
    }
    SlaMonitor &slaMonitor(unsigned si)
    {
        return *sockets_[si]->monitor;
    }

    /** One record per generated arrival processed so far. */
    const std::vector<TenantRecord> &records() const
    {
        return records_;
    }

    /** Per-tenant billing/SLA CSV (deterministic bytes; settles
     *  residents' accruals up to now()). */
    void writeBillingCsv(std::ostream &os);
    /** Human-readable end-of-run rollup (deterministic bytes). */
    void writeSummary(std::ostream &os);
    /** Stats dumps of every socket, in socket order. */
    void dumpStats(std::ostream &os) const;
    /** The end-of-run reports. With `dir` empty: the summary, a
     *  blank line and the billing CSV (then every socket's stats when
     *  `stats`) to `out`. Otherwise billing.csv, summary.txt (and
     *  stats.txt) under `dir`, echoing the summary and the paths to
     *  `out`. */
    void writeReports(const std::string &dir, bool stats,
                      std::ostream &out);
    /** Flush per-socket telemetry (idempotent). */
    void finalizeTelemetry();

    /** Write socketN.mitts + cloud.mitts under `dir` (created). */
    void saveCheckpoint(const std::string &dir);
    /** Restore into a freshly constructed engine (same scenario —
     *  scenarioHash is verified, and every socket image must be at
     *  the datacenter's cycle; throws ckpt::Error / ScenarioError on
     *  mismatch). */
    void restoreCheckpoint(const std::string &dir);

  private:
    struct Slot
    {
        int record = -1; ///< records_ index, -1 = free
        Tick departAt = 0;
        unsigned tierIdx = 0;
        /** Tenant accruals at admission; the stay's bill is the
         *  delta (parked-core rental is never attributed). */
        double billBase = 0.0;
        std::uint64_t winBase = 0;
        std::uint64_t latBase = 0;
        std::uint64_t bwBase = 0;
        /** Autoscaler trigger baselines (shaper counters). */
        std::uint64_t lastIssued = 0;
        std::uint64_t lastStalls = 0;
        Tick lastRuleCheckAt = 0;
        /** Scale direction the rule trigger chose, consumed by the
         *  rule action on the same cycle. */
        int pendingScale = 0;
    };

    struct Socket
    {
        std::unique_ptr<System> sys;
        /** Borrowed; owned by sys (trace factory sink), core order. */
        std::vector<CloudTrace *> traces;
        std::unique_ptr<SlaMonitor> monitor;
        /** Permanent per-core billing entities and their scalers. */
        std::vector<std::unique_ptr<Tenant>> tenants;
        std::vector<std::unique_ptr<AutoScaler>> scalers;
        std::vector<Slot> slots;
    };

    SystemConfig socketConfig(unsigned si) const;
    void buildSocket(unsigned si);
    void boundaryActions(Tick t);
    void tryAdmit(const TenantSpec &spec, Tick t);
    void admit(unsigned si, unsigned c, unsigned rec_idx, Tick t);
    void depart(unsigned si, unsigned c, Tick t);
    void applyScale(unsigned si, unsigned c, int dir, Tick t);
    /** Accrue every resident's charges up to now() and copy live
     *  monitor/billing deltas into their records. */
    void settleResidents();
    /** The one walk over cloud.mitts, shared by save and restore. */
    void walkSections(ckpt::Archive &a);
    /** Restore-side: every slot and record index names a real
     *  record, tier, socket and slot (throws ckpt::Error). */
    void validateIndices() const;

    ScenarioConfig sc_;
    std::string outDir_;
    /** Kernel-mode knobs (skip-ahead / verify), excluded from the
     *  scenario hash exactly like configHash excludes them. */
    SimulationConfig simCfg_;

    PricingModel pricing_;
    Marketplace market_;
    TenantPopulation population_;
    std::unique_ptr<AdmissionControl> admission_;
    /** Shaper config a free slot's shaper is parked on. */
    BinConfig parked_;

    std::vector<std::unique_ptr<Socket>> sockets_;
    std::vector<TenantRecord> records_;
    std::size_t nextArrival_ = 0;
    Tick now_ = 0;
};

} // namespace mitts::cloud

#endif // MITTS_CLOUD_ENGINE_HH

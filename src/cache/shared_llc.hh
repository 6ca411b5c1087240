/**
 * @file
 * Shared, banked last-level cache.
 *
 * Requests are address-interleaved across banks; each bank processes
 * one request per cycle, reports hit/miss back to the issuing core's
 * source gate (the hybrid MITTS placement of paper Fig. 7), and
 * forwards misses to the memory controller with block-level merging.
 */

#ifndef MITTS_CACHE_SHARED_LLC_HH
#define MITTS_CACHE_SHARED_LLC_HH

#include <deque>
#include <unordered_map>
#include <vector>

#include "base/stats.hh"
#include "cache/cache_array.hh"
#include "cache/interfaces.hh"
#include "cache/l1_cache.hh"
#include "mem/request_pool.hh"
#include "noc/mesh.hh"
#include "sim/clocked.hh"
#include "sim/event_queue.hh"
#include "telemetry/probe.hh"

namespace mitts
{

namespace telemetry
{
class Telemetry;
} // namespace telemetry

/** LLC geometry (paper Table II: 1 MB shared 8-way, 64KB single). */
struct LlcConfig
{
    std::size_t sizeBytes = 1024 * 1024;
    unsigned assoc = 8;
    unsigned numBanks = 8;
    unsigned bankQueueDepth = 16;
    unsigned maxOutstandingMisses = 32;
    Tick hitLatency = 20;
    Tick fillToL1Latency = 4;

    /** Geometry of the per-core miss inter-arrival histograms (the
     *  paper's Fig. 2 "intrinsic distributions"). */
    unsigned histBins = 40;
    Tick histBinWidth = 25;
};

class SharedLlc : public Clocked, public MemSink,
                  public ckpt::Serializable
{
  public:
    SharedLlc(std::string name, const LlcConfig &cfg, unsigned num_cores,
              RequestPool &pool, EventQueue &events);

    void setL1(CoreId core, L1Cache *l1) { l1s_.at(core) = l1; }
    void setGate(CoreId core, SourceGate *g) { gates_.at(core) = g; }
    void setDownstream(MemSink *mc) { downstream_ = mc; }

    /** Optional mesh NoC between the L1s and the LLC banks; adds
     *  routed latency to requests and fills (node i = core/bank i,
     *  modulo the mesh size). */
    void setNoc(MeshNoc *noc) { noc_ = noc; }

    // MemSink (L1 -> LLC side)
    bool canAccept(const MemRequest &req) const override;
    void push(ReqPtr req, Tick now) override;

    /** Read fill from the memory controller. */
    void fillFromMem(const ReqPtr &req, Tick now);

    void tick(Tick now) override;
    Tick nextWakeTick(Tick now) const override;

    stats::Group &statsGroup() { return stats_; }

    /** Register time-series probes: hit/miss counters, outstanding
     *  miss (MSHR) occupancy, bank-queue and writeback backlog. */
    void registerTelemetry(telemetry::Telemetry &t);

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t coreHits(CoreId c) const
    {
        return coreHits_.at(c)->value();
    }
    std::uint64_t coreMisses(CoreId c) const
    {
        return coreMisses_.at(c)->value();
    }

    /** Inter-arrival time distribution of this core's LLC misses —
     *  its intrinsic memory request distribution (paper Fig. 2). */
    const stats::Histogram &
    missInterArrival(CoreId c) const
    {
        return *missHist_.at(c);
    }

    /** Checkpoint tags, bank queues, miss map, writebacks, stats. */
    void saveState(ckpt::Writer &w) const override;
    void loadState(ckpt::Reader &r) override;

  private:
    struct BankEntry
    {
        ReqPtr req;
        Tick readyAt;
    };

    struct Bank
    {
        std::deque<BankEntry> queue;
    };

    unsigned bankOf(Addr block_addr) const;
    void processBank(Bank &bank, Tick now);
    /** Remove a bank's head entry. */
    void popBank(Bank &bank);
    void sampleMissInterArrival(CoreId core, Tick now);
    void respondToL1(const ReqPtr &req, Tick delay, Tick now);
    void notifyGate(const ReqPtr &req, bool hit, Tick now);

    // detlint-transient(construction-time config; never mutated after build)
    LlcConfig cfg_;
    RequestPool &pool_;
    EventQueue &events_;
    CacheArray array_;
    std::vector<Bank> banks_;
    /** Entries across all bank queues; tick() and nextWakeTick() skip
     *  the bank scan when it is zero. */
    // detlint-transient(sum of the bank queue sizes; recounted on load)
    std::size_t queued_ = 0;
    std::vector<L1Cache *> l1s_;
    std::vector<SourceGate *> gates_;
    MemSink *downstream_ = nullptr;
    MeshNoc *noc_ = nullptr;

    /** Outstanding LLC misses: block -> requests waiting for fill. */
    std::unordered_map<Addr, std::vector<ReqPtr>> missMap_;

    /** LLC dirty evictions awaiting memory-controller space. */
    std::deque<ReqPtr> wbQueue_;
    SeqNum nextWbSeq_ = 1ULL << 61;

    // detlint-transient(probe wiring re-registered on rebuild, not state)
    telemetry::ProbeOwner probes_;

    stats::Group stats_;
    stats::Counter &hits_;
    stats::Counter &misses_;
    stats::Counter &merged_;
    stats::Counter &writebacks_;
    stats::Counter &bankStalls_;
    std::vector<stats::Counter *> coreHits_;
    std::vector<stats::Counter *> coreMisses_;
    std::vector<stats::Histogram *> missHist_;
    std::vector<Tick> lastMissAt_;
};

} // namespace mitts

#endif // MITTS_CACHE_SHARED_LLC_HH

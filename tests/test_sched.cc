/**
 * @file
 * Unit tests for memory schedulers: FCFS/FR-FCFS ordering, boosted
 * cores, fair queueing, TCM clustering, MISE priorities, FST
 * throttling, MemGuard budgets.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "base/thread_pool.hh"
#include "dram/dram.hh"
#include "sched/atlas.hh"
#include "sched/fair_queue.hh"
#include "sched/frfcfs.hh"
#include "sched/fst.hh"
#include "sched/memguard.hh"
#include "sched/mise.hh"
#include "sched/slowdown_estimator.hh"
#include "sched/tcm.hh"
#include "system/system.hh"

namespace mitts
{
namespace
{

RequestPool &
testPool()
{
    static RequestPool pool;
    return pool;
}

ReqPtr
txn(Addr addr, CoreId core, Tick enq, SeqNum seq = 0)
{
    auto r = testPool().make(seq, addr, MemOp::Read, core, enq);
    r->mcEnqueueAt = enq;
    return r;
}

/** SoA view of a request list, as the controller hands schedulers. */
TxnQueue
toQueue(const std::vector<ReqPtr> &reqs, const Dram &dram)
{
    TxnQueue q;
    for (const auto &r : reqs)
        q.push(r, dram.config());
    return q;
}

struct SchedFixture : public ::testing::Test
{
    SchedFixture() : dram(makeCfg()) {}

    static DramConfig
    makeCfg()
    {
        DramConfig c = DramConfig::ddr3_1333();
        c.refreshEnabled = false;
        return c;
    }

    /** Two addresses in the same bank, different rows. */
    Addr
    sameBankOtherRow(Addr a) const
    {
        return a + static_cast<Addr>(dram.config().rowBytes) *
                       dram.config().numBanks;
    }

    Dram dram;
};

TEST_F(SchedFixture, FrfcfsPrefersRowHit)
{
    RankedFrfcfs sched;
    // Open a row first.
    dram.issue(0x0, false, 0);
    const Tick now = 500;
    std::vector<ReqPtr> q{
        txn(sameBankOtherRow(0x0), 0, 1), // older but row conflict
        txn(0x40, 1, 10),                 // row hit
    };
    EXPECT_EQ(sched.pick(toQueue(q, dram), dram, now), 1);
}

TEST_F(SchedFixture, FrfcfsFallsBackToOldest)
{
    RankedFrfcfs sched;
    std::vector<ReqPtr> q{txn(0x0, 0, 10),
                          txn(dram.config().rowBytes, 1, 5)};
    // No open rows: both closed, pick older.
    EXPECT_EQ(sched.pick(toQueue(q, dram), dram, 100), 1);
}

TEST_F(SchedFixture, BoostedCoreWins)
{
    RankedFrfcfs sched;
    dram.issue(0x0, false, 0);
    const Tick now = 500;
    std::vector<ReqPtr> q{
        txn(0x40, 0, 1),                  // row hit, core 0
        txn(sameBankOtherRow(0x0), 1, 10) // conflict, core 1
    };
    sched.setBoostedCore(1);
    // Boost outranks the row hit once the conflict is issueable.
    EXPECT_EQ(sched.pick(toQueue(q, dram), dram, now), 1);
    sched.setBoostedCore(kNoCore);
    EXPECT_EQ(sched.pick(toQueue(q, dram), dram, now), 0);
}

TEST_F(SchedFixture, WritebacksLoseToDemand)
{
    RankedFrfcfs sched;
    std::vector<ReqPtr> q{
        txn(0x0, kNoCore, 1), // old writeback
        txn(dram.config().rowBytes, 3, 50),
    };
    q[0]->op = MemOp::Writeback;
    EXPECT_EQ(sched.pick(toQueue(q, dram), dram, 100), 1);
}

TEST_F(SchedFixture, NothingReadyReturnsMinusOne)
{
    RankedFrfcfs sched;
    dram.issue(0x0, false, 0);
    std::vector<ReqPtr> q{txn(sameBankOtherRow(0x0), 0, 1)};
    // Conflict blocked by tRAS right after the activate.
    EXPECT_EQ(sched.pick(toQueue(q, dram), dram, 1), -1);
}

TEST_F(SchedFixture, FairQueueAlternatesBetweenCores)
{
    FairQueueScheduler sched(2);
    // Core 0 floods the queue, core 1 has one request; after serving
    // core 0 once, core 1's virtual finish time is earlier.
    std::vector<ReqPtr> q{
        txn(0x0, 0, 0), txn(0x1000, 0, 1),
        txn(dram.config().rowBytes, 1, 2),
    };
    const int first = sched.pick(toQueue(q, dram), dram, 100);
    ASSERT_GE(first, 0);
    const CoreId c1 = q[first]->core;
    q.erase(q.begin() + first);
    const int second = sched.pick(toQueue(q, dram), dram, 200);
    ASSERT_GE(second, 0);
    EXPECT_NE(q[second]->core, c1);
}

TEST_F(SchedFixture, TcmSeparatesClusters)
{
    TcmConfig cfg;
    cfg.quantum = 1000;
    cfg.shuffleInterval = 100;
    // With N=2 the paper's 2/N threshold is a degenerate 100%; use
    // an explicit 50% so the hog lands in the bandwidth cluster.
    cfg.clusterThresh = 0.5;
    TcmScheduler sched(2, cfg);

    // Core 1 is memory hogging: many arrivals in the quantum.
    for (int i = 0; i < 100; ++i) {
        auto r = txn(0x0, 1, i);
        sched.onEnqueue(*r, i);
    }
    auto r0 = txn(0x40, 0, 5);
    sched.onEnqueue(*r0, 5);
    sched.tick(1000); // quantum boundary -> recluster

    const auto &lat = sched.latencyCluster();
    EXPECT_TRUE(lat[0]);
    EXPECT_FALSE(lat[1]);

    // Latency-cluster core outranks the bandwidth hog.
    std::vector<ReqPtr> q{txn(0x0, 1, 1),
                          txn(dram.config().rowBytes, 0, 50)};
    EXPECT_EQ(sched.pick(toQueue(q, dram), dram, 2000), 1);
}

TEST(SlowdownEstimator, TracksServiceRates)
{
    SlowdownEstimatorConfig cfg;
    cfg.epochLength = 100;
    cfg.ewma = 1.0;
    SlowdownEstimator est(2, cfg);
    RankedFrfcfs sched;
    est.attach(&sched, nullptr);

    // Epoch 0 measures core 0 (boost set at first closeEpoch).
    // Feed completions: core 0 fast when measured, slow otherwise.
    for (int e = 0; e < 8; ++e) {
        const bool measuring_c0 = sched.boostedCore() == 0;
        for (int i = 0; i < (measuring_c0 ? 20 : 5); ++i)
            est.onComplete(0);
        for (int i = 0; i < 10; ++i)
            est.onComplete(1);
        est.tick((e + 1) * 100);
    }
    EXPECT_GT(est.slowdown(0), est.slowdown(1));
    EXPECT_GE(est.slowdown(0), 1.0);
}

TEST(Mise, PrioritizesMostSlowedDown)
{
    MiseConfig cfg;
    cfg.epochLength = 100;
    cfg.intervalLength = 1000;
    MiseScheduler sched(2, cfg);

    DramConfig dcfg = DramConfig::ddr3_1333();
    dcfg.refreshEnabled = false;
    Dram dram(dcfg);

    // Simulate epochs: core 0 heavily slowed (alone rate >> shared).
    for (Tick t = 1; t <= 2000; ++t) {
        if (t % 100 == 0) {
            const bool m0 = sched.boostedCore() == 0;
            for (int i = 0; i < (m0 ? 30 : 2); ++i) {
                auto r = txn(0, 0, t, i);
                sched.onComplete(*r, t);
            }
            for (int i = 0; i < 10; ++i) {
                auto r = txn(0, 1, t, i);
                sched.onComplete(*r, t);
            }
        }
        sched.tick(t);
    }

    // After an interval, core 0 outranks core 1 for equal rows.
    std::vector<ReqPtr> q{txn(dcfg.rowBytes, 1, 1),
                          txn(2 * dcfg.rowBytes, 0, 50)};
    EXPECT_EQ(sched.pick(toQueue(q, dram), dram, 3000), 1);
    EXPECT_GT(sched.estimator().slowdown(0),
              sched.estimator().slowdown(1));
}

TEST(Fst, ThrottlesInterferer)
{
    FstConfig cfg;
    cfg.interval = 400;
    cfg.epochLength = 100;
    cfg.unfairnessThresh = 1.2;
    FstScheduler sched(2, cfg);

    // Core 0 suffers (alone rate >> shared rate); core 1 cruises.
    for (Tick t = 1; t <= 5000; ++t) {
        if (t % 100 == 0) {
            const bool measuring_c0 = sched.boostedCore() == 0;
            for (int i = 0; i < (measuring_c0 ? 30 : 2); ++i) {
                auto r = txn(0, 0, t, i);
                sched.onComplete(*r, t);
            }
            for (int i = 0; i < 10; ++i) {
                auto r = txn(0, 1, t, i);
                sched.onComplete(*r, t);
            }
        }
        sched.tick(t);
    }
    // FST should have throttled the interferer (core 1) below peak
    // while leaving the victim at full rate.
    EXPECT_LT(sched.throttleLevel(1), 1.0);
    EXPECT_DOUBLE_EQ(sched.throttleLevel(0), 1.0);
}

TEST(Fst, GateRateLimits)
{
    FstConfig cfg;
    cfg.maxRate = 0.01; // 1 per 100 cycles at level 1.0
    cfg.burstCap = 1.0;
    FstScheduler sched(1, cfg);
    SourceGate *gate = sched.gate(0);
    MemRequest r;
    r.core = 0;
    EXPECT_TRUE(gate->tryIssue(r, 0));
    EXPECT_FALSE(gate->tryIssue(r, 50));
    EXPECT_TRUE(gate->tryIssue(r, 150));
}

TEST(MemGuard, BudgetThenReclaimThenBestEffort)
{
    MemGuardConfig cfg;
    cfg.period = 1000;
    cfg.guaranteedFraction = 1.0;
    cfg.peakRequestsPerCycle = 0.004; // 4 requests/period total
    MemGuardController ctrl("mg", 2, cfg);

    // Each core gets 2 guaranteed requests per period.
    EXPECT_EQ(ctrl.budget(0), 2u);
    EXPECT_TRUE(ctrl.request(0, 0));
    EXPECT_TRUE(ctrl.request(0, 1));
    // Core 0 exhausted its own budget; reclaim core 1's unused.
    EXPECT_TRUE(ctrl.request(0, 2));
    EXPECT_TRUE(ctrl.request(0, 3));
    // Global budget gone and no MC attached -> core 0 is refused...
    EXPECT_FALSE(ctrl.request(0, 4));
    // ...but core 1's own guarantee is always honoured even though
    // core 0 reclaimed the global slack.
    EXPECT_TRUE(ctrl.request(1, 5));
    EXPECT_TRUE(ctrl.request(1, 6));
    EXPECT_FALSE(ctrl.request(1, 7));

    // Period reset restores budgets.
    ctrl.tick(1000);
    EXPECT_TRUE(ctrl.request(0, 1001));
}

TEST(MemGuard, GateDelegatesToController)
{
    MemGuardConfig cfg;
    cfg.period = 1000;
    cfg.guaranteedFraction = 1.0;
    cfg.peakRequestsPerCycle = 0.001; // 1 request/period
    MemGuardController ctrl("mg", 1, cfg);
    SourceGate *gate = ctrl.gate(0);
    MemRequest r;
    r.core = 0;
    EXPECT_TRUE(gate->tryIssue(r, 0));
    EXPECT_FALSE(gate->tryIssue(r, 1));
}


TEST_F(SchedFixture, AtlasRanksLeastAttainedServiceHighest)
{
    AtlasConfig cfg;
    cfg.quantum = 1000;
    AtlasScheduler sched(2, cfg);

    // Core 1 received lots of DRAM service this quantum.
    for (int i = 0; i < 50; ++i) {
        auto r = txn(0, 1, 0, i);
        r->dramIssueAt = 0;
        r->doneAt = 40;
        sched.onComplete(*r, 40);
    }
    sched.tick(1000); // quantum boundary

    EXPECT_LT(sched.attainedService(0), sched.attainedService(1));
    // Core 0 (light) outranks core 1 even against a row hit.
    dram.issue(0x0, false, 0);
    const Tick now = 500 + 1000;
    std::vector<ReqPtr> q{
        txn(0x40, 1, now - 10),                 // row hit, hog
        txn(sameBankOtherRow(0x0), 0, now - 5), // conflict, light
    };
    // Wait until the conflict is issueable.
    EXPECT_EQ(sched.pick(toQueue(q, dram), dram, now), 1);
}

TEST_F(SchedFixture, AtlasStarvationGuard)
{
    AtlasConfig cfg;
    cfg.quantum = 100000;
    cfg.starvationThreshold = 1000;
    AtlasScheduler sched(2, cfg);
    dram.issue(0x0, false, 0);
    const Tick now = 5000;
    std::vector<ReqPtr> q{
        txn(0x40, 0, now - 10),                   // fresh row hit
        txn(sameBankOtherRow(0x0), 1, now - 2000) // starved
    };
    EXPECT_EQ(sched.pick(toQueue(q, dram), dram, now), 1);
}

// ---------------------------------------------------------------
// Ranking-tie determinism (the linter-seeded regression class).
//
// TCM is the worst offender: an identical-MPKI mix makes every core
// tie in the clustering sort, and the latency/bandwidth cluster cut
// is taken from that order — an unstable sort would hand the cut to
// whatever permutation the standard library leaves. The full-system
// runs below must be byte-identical across the skip-ahead and
// no-skip kernels, and across host thread counts.

namespace
{

std::string
runTcmMix(bool skip_ahead)
{
    // Four copies of the same app: identical traffic, so every
    // quantum's MPKI ranking is all ties.
    SystemConfig cfg = SystemConfig::multiProgram(
        {"mcf", "mcf", "mcf", "mcf"});
    cfg.sched = SchedulerKind::Tcm;
    cfg.sim.skipAhead = skip_ahead;
    System sys(cfg);
    sys.run(60'000);
    std::ostringstream os;
    sys.dumpStats(os);
    return os.str();
}

} // namespace

TEST(SchedTieDeterminism, TcmSkipVsNoSkipBitIdentical)
{
    EXPECT_EQ(runTcmMix(true), runTcmMix(false));
}

TEST(SchedTieDeterminism, TcmBitIdenticalAcrossThreadCounts)
{
    // The same four-way tied mix simulated serially and on a 4-thread
    // pool (the experiment-engine path): every replica must dump the
    // same bytes.
    const std::string reference = runTcmMix(true);

    ThreadPool serial(1), pooled(4);
    for (ThreadPool *pool : {&serial, &pooled}) {
        const auto dumps = parallelMap(
            4, [](std::size_t) { return runTcmMix(true); }, pool);
        for (const auto &d : dumps)
            EXPECT_EQ(d, reference);
    }
}

} // namespace
} // namespace mitts

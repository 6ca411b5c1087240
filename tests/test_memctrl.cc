/**
 * @file
 * Unit tests for the memory controller: queue capacity, scheduler
 * integration, completion callbacks, the global MITTS smoothing FIFO.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "memctrl/mem_controller.hh"
#include "system/system.hh"
#include "sched/frfcfs.hh"
#include "sim/event_queue.hh"

namespace mitts
{
namespace
{

/** Runs DRAM completions on the controller under test, the role the
 *  System's event handler plays. */
struct ToMc : public EventHandler
{
    void
    fire(const EventDesc &d, Tick when) override
    {
        mc->complete(d.req, when);
    }

    MemController *mc = nullptr;
};

struct McFixture : public ::testing::Test
{
    McFixture()
    {
        dram_cfg = DramConfig::ddr3_1333();
        dram_cfg.refreshEnabled = false;
        events.setHandler(&toMc);
    }

    void
    build(unsigned queue_depth, unsigned fifo_depth)
    {
        McConfig cfg;
        cfg.queueDepth = queue_depth;
        cfg.smoothingFifoDepth = fifo_depth;
        mc = std::make_unique<MemController>("mc.test", cfg, dram_cfg,
                                             events);
        mc->initPerCore(4);
        mc->setScheduler(&sched);
        toMc.mc = mc.get();
    }

    ReqPtr
    demand(Addr addr, CoreId core, SeqNum seq)
    {
        auto r = pool.make(seq, addr, MemOp::Read, core, 0);
        r->l1MissAt = 0;
        return r;
    }

    void
    run(Tick from, Tick to)
    {
        for (Tick t = from; t < to; ++t) {
            events.runDue(t);
            mc->tick(t);
        }
    }

    DramConfig dram_cfg;
    RequestPool pool;
    EventQueue events;
    ToMc toMc;
    FrfcfsScheduler sched;
    std::unique_ptr<MemController> mc;
};

TEST_F(McFixture, QueueCapacityEnforced)
{
    build(4, 0);
    for (SeqNum i = 0; i < 4; ++i) {
        auto r = demand(i * 0x40000, 0, i);
        ASSERT_TRUE(mc->canAccept(*r));
        mc->push(r, 0);
    }
    auto extra = demand(0x900000, 0, 99);
    EXPECT_FALSE(mc->canAccept(*extra));
}

TEST_F(McFixture, ReadsCompleteAndCountPerCore)
{
    build(32, 0);
    mc->push(demand(0x0, 2, 1), 0);
    run(0, 300);
    EXPECT_EQ(mc->completed(), 1u);
    EXPECT_EQ(mc->completed(2), 1u);
    EXPECT_EQ(mc->completed(0), 0u);
}

TEST_F(McFixture, WritebacksDrainWithoutCompletion)
{
    build(32, 0);
    auto wb = pool.make(5, 0x40, MemOp::Writeback, kNoCore, 0);
    mc->push(wb, 0);
    run(0, 300);
    EXPECT_EQ(mc->completed(), 0u); // writes produce no fills
    EXPECT_EQ(mc->queueSize(), 0u); // but do leave the queue
}

TEST_F(McFixture, QueueDrainsUnderLoad)
{
    build(32, 0);
    // Saturate with row-friendly traffic; everything must finish.
    for (SeqNum i = 0; i < 32; ++i)
        mc->push(demand(i * 64, 0, i), 0);
    run(0, 5'000);
    EXPECT_EQ(mc->completed(), 32u);
    EXPECT_GT(mc->dram().rowHits(), 20u);
}

TEST_F(McFixture, SmoothingFifoAcceptsBurstBeyondQueue)
{
    build(4, 32);
    // A burst bigger than the transaction queue fits in the FIFO.
    for (SeqNum i = 0; i < 20; ++i) {
        auto r = demand(i * 0x40000, static_cast<CoreId>(i % 4), i);
        ASSERT_TRUE(mc->canAccept(*r)) << "at " << i;
        mc->push(r, 0);
    }
    // FIFO capacity (32) is the accept bound, not the queue (4).
    run(0, 30'000);
    EXPECT_EQ(mc->completed(), 20u);
}

TEST_F(McFixture, SmoothingFifoPreservesOrderIntoQueue)
{
    build(1, 8);
    for (SeqNum i = 0; i < 6; ++i)
        mc->push(demand(i * 64, 0, i), 0);
    // With a queue of 1 the scheduler has no choice: service order
    // must equal FIFO order. Completion times must be increasing by
    // seq, which we check via per-request doneAt.
    std::vector<ReqPtr> reqs;
    run(0, 10'000);
    EXPECT_EQ(mc->completed(), 6u);
}

TEST_F(McFixture, QueueLatencyTracked)
{
    build(32, 0);
    for (SeqNum i = 0; i < 8; ++i)
        mc->push(demand(i * 0x40000, 0, i), 0); // all row misses
    run(0, 3'000);
    EXPECT_GT(mc->avgQueueLatency(), 0.0);
}

TEST_F(McFixture, RefreshDelaysService)
{
    dram_cfg.refreshEnabled = true;
    build(32, 0);
    // Request arriving just as refresh starts waits ~tRFC.
    const Tick refresh_at = dram_cfg.tREFI;
    run(0, refresh_at + 1);
    mc->push(demand(0x0, 0, 1), refresh_at + 1);
    run(refresh_at + 1, refresh_at + dram_cfg.tRFC / 2);
    EXPECT_EQ(mc->completed(), 0u); // still refreshing
    run(refresh_at + dram_cfg.tRFC / 2,
        refresh_at + dram_cfg.tRFC + 500);
    EXPECT_EQ(mc->completed(), 1u);
}


TEST_F(McFixture, MultiChannelInterleavesAndServicesInParallel)
{
    McConfig cfg;
    cfg.queueDepth = 32;
    cfg.numChannels = 2;
    mc = std::make_unique<MemController>("mc.test", cfg, dram_cfg,
                                         events);
    mc->initPerCore(4);
    mc->setScheduler(&sched);
    toMc.mc = mc.get();

    // Consecutive rows land on alternating channels.
    const Addr row = dram_cfg.rowBytes;
    EXPECT_NE(mc->channelOf(0), mc->channelOf(row));
    EXPECT_EQ(mc->channelOf(0), mc->channelOf(2 * row));

    // One row-miss per channel: with two channels both issue in the
    // same cycle, so completion of both takes barely longer than one.
    mc->push(demand(0, 0, 1), 0);
    mc->push(demand(row, 0, 2), 0);
    const Tick single =
        dram_cfg.tRCD + dram_cfg.tCL + dram_cfg.tBURST;
    run(0, single + 10);
    EXPECT_EQ(mc->completed(), 2u);
}

TEST_F(McFixture, MultiChannelCapacityIsPerChannel)
{
    McConfig cfg;
    cfg.queueDepth = 2;
    cfg.numChannels = 2;
    mc = std::make_unique<MemController>("mc.test", cfg, dram_cfg,
                                         events);
    mc->initPerCore(4);
    mc->setScheduler(&sched);

    const Addr row = dram_cfg.rowBytes;
    // Fill channel 0's queue (rows 0, 2 -> channel 0).
    mc->push(demand(0, 0, 1), 0);
    mc->push(demand(2 * row, 0, 2), 0);
    auto ch0_extra = demand(4 * row, 0, 3);
    EXPECT_FALSE(mc->canAccept(*ch0_extra));
    // Channel 1 still has room.
    auto ch1 = demand(row, 0, 4);
    EXPECT_TRUE(mc->canAccept(*ch1));
}

TEST(McMultiChannel, TwoChannelsBeatOneUnderLoad)
{
    // System-level: a streaming-heavy mix finishes faster with two
    // channels (double peak bandwidth).
    auto cycles_with = [](unsigned channels) {
        SystemConfig cfg = SystemConfig::multiProgram(
            {"libquantum", "streamcluster"});
        cfg.mc.numChannels = channels;
        cfg.seed = 77;
        System sys(cfg);
        auto res = sys.runUntilInstructions(60'000, 60'000'000);
        Tick total = 0;
        for (const auto &r : res)
            total += r.completedAt;
        return total;
    };
    EXPECT_LT(cycles_with(2), cycles_with(1));
}

/** FR-FCFS that counts its pick() calls and the ones that issue. */
class CountingScheduler : public FrfcfsScheduler
{
  public:
    int
    pick(const TxnQueue &queue, const Dram &dram, Tick now) override
    {
        const int p = FrfcfsScheduler::pick(queue, dram, now);
        ++calls;
        if (p >= 0)
            ++issued;
        return p;
    }

    std::uint64_t calls = 0;
    std::uint64_t issued = 0;
};

// The issue gate calls pick() only on cycles where some queued
// transaction can issue; FR-FCFS then always issues one.
TEST_F(McFixture, IssueGateCallsPickOnlyWhenSomethingCanIssue)
{
    build(32, 0);
    CountingScheduler counting;
    mc->setScheduler(&counting);
    for (SeqNum i = 0; i < 32; ++i)
        mc->push(demand(i * 0x40000 + (i % 3) * 64, 0, i), 0);
    run(0, 20'000);
    EXPECT_EQ(mc->completed(), 32u);
    EXPECT_EQ(counting.calls, 32u);
    EXPECT_EQ(counting.issued, counting.calls);
}

std::string
statsOf(System &sys)
{
    std::ostringstream os;
    sys.dumpStats(os);
    return os.str();
}

// Verify mode: on every cycle the issue gate skips a channel, the
// controller re-scans the queue and asserts that no transaction could
// have issued (and the kernel checks every wake claim). Each scheduler
// runs that way and must match its plain run byte for byte.
TEST(McIssueGate, ExactUnderVerifyModeForEveryScheduler)
{
    for (SchedulerKind k : allSchedulers()) {
        SystemConfig cfg = SystemConfig::multiProgram(
            {"mcf", "libquantum", "omnetpp", "astar"});
        cfg.sched = k;
        cfg.seed = 99;
        SystemConfig verify = cfg;
        verify.sim.verifySkip = true;
        System plain(cfg), checked(verify);
        plain.run(60'000);
        checked.run(60'000);
        EXPECT_EQ(statsOf(checked), statsOf(plain)) << schedulerName(k);
    }
}

} // namespace
} // namespace mitts

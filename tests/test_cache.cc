/**
 * @file
 * Unit tests for the cache hierarchy: tag array LRU, MSHR coalescing,
 * L1 behaviour with a scripted downstream, LLC banking and merging.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/cache_array.hh"
#include "cache/l1_cache.hh"
#include "cache/mshr.hh"
#include "cache/shared_llc.hh"
#include "sim/event_queue.hh"

namespace mitts
{
namespace
{

TEST(CacheArray, InsertThenHit)
{
    CacheArray arr(1024, 2); // 8 sets x 2 ways
    EXPECT_FALSE(arr.touch(0));
    EXPECT_FALSE(arr.insert(0, false).valid);
    EXPECT_TRUE(arr.touch(0));
    EXPECT_TRUE(arr.contains(0));
}

TEST(CacheArray, LruEviction)
{
    CacheArray arr(2 * 64, 2); // 1 set, 2 ways
    arr.insert(0, false);
    arr.insert(64, false);
    arr.touch(0); // 64 becomes LRU
    const Victim v = arr.insert(128, false);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.blockAddr, 64u);
    EXPECT_TRUE(arr.contains(0));
    EXPECT_FALSE(arr.contains(64));
}

TEST(CacheArray, VictimAddressRoundTrips)
{
    CacheArray arr(32 * 1024, 4);
    const Addr a = 0x12340;
    const Addr block = a & ~Addr{63};
    arr.insert(block, true);
    // Fill the set until `block` is evicted, checking the address.
    const std::size_t sets = arr.numSets();
    bool found = false;
    for (unsigned w = 0; w < 8; ++w) {
        const Addr other = block + sets * 64 * (w + 1);
        const Victim v = arr.insert(other, false);
        if (v.valid && v.blockAddr == block) {
            EXPECT_TRUE(v.dirty);
            found = true;
            break;
        }
    }
    EXPECT_TRUE(found);
}

TEST(CacheArray, DirtyBit)
{
    CacheArray arr(1024, 2);
    arr.insert(0, false);
    EXPECT_FALSE(arr.isDirty(0));
    arr.markDirty(0);
    EXPECT_TRUE(arr.isDirty(0));
}

TEST(Mshr, AllocateFindRelease)
{
    MshrFile file(2, 4);
    EXPECT_FALSE(file.full());
    Mshr &m = file.allocate(0x100, 5);
    EXPECT_EQ(file.find(0x100), &m);
    file.allocate(0x200, 6);
    EXPECT_TRUE(file.full());
    file.release(m);
    EXPECT_FALSE(file.full());
    EXPECT_EQ(file.find(0x100), nullptr);
}

TEST(Mshr, TargetLimit)
{
    MshrFile file(1, 2);
    Mshr &m = file.allocate(0, 0);
    m.waitingLoads.push_back(1);
    EXPECT_TRUE(file.canCoalesce(m));
    m.waitingLoads.push_back(2);
    EXPECT_FALSE(file.canCoalesce(m));
}

/** Downstream sink that records pushes and optionally refuses. */
class RecordingSink : public MemSink
{
  public:
    bool
    canAccept(const MemRequest &) const override
    {
        return accepting;
    }

    void
    push(ReqPtr req, Tick now) override
    {
        (void)now;
        pushed.push_back(std::move(req));
    }

    bool accepting = true;
    std::vector<ReqPtr> pushed;
};

/** L1 client recording load completions. */
class RecordingClient : public L1Client
{
  public:
    void
    loadComplete(SeqNum seq, Tick now) override
    {
        (void)now;
        completed.push_back(seq);
    }

    std::vector<SeqNum> completed;
};

struct L1Fixture : public ::testing::Test
{
    L1Fixture() : l1("l1.test", L1Config{}, 0, pool)
    {
        l1.setClient(&client);
        l1.setDownstream(&sink);
    }

    RequestPool pool;
    RecordingSink sink;
    RecordingClient client;
    L1Cache l1;
};

TEST_F(L1Fixture, MissGoesDownstream)
{
    EXPECT_EQ(l1.access(0x1000, false, 1, 0), L1Result::MissQueued);
    l1.tick(1);
    ASSERT_EQ(sink.pushed.size(), 1u);
    EXPECT_EQ(sink.pushed[0]->blockAddr, 0x1000u);
    EXPECT_EQ(l1.misses(), 1u);
}

TEST_F(L1Fixture, FillWakesLoadAndHitsAfter)
{
    l1.access(0x1000, false, 1, 0);
    l1.tick(1);
    l1.fill(sink.pushed[0], 50);
    ASSERT_EQ(client.completed.size(), 1u);
    EXPECT_EQ(client.completed[0], 1u);

    // Now it hits. The core times a hit itself (ready hitLatency
    // cycles after the access), so no completion is delivered.
    EXPECT_EQ(l1.access(0x1000, false, 2, 60), L1Result::Hit);
    EXPECT_EQ(client.completed.size(), 1u);
    EXPECT_EQ(l1.hits(), 1u);
}

TEST_F(L1Fixture, CoalescesSameBlock)
{
    l1.access(0x2000, false, 1, 0);
    l1.access(0x2040 - 0x40, false, 2, 0); // same block 0x2000
    l1.tick(1);
    EXPECT_EQ(sink.pushed.size(), 1u);
    l1.fill(sink.pushed[0], 50);
    EXPECT_EQ(client.completed.size(), 2u);
}

TEST_F(L1Fixture, BlocksWhenMshrsFull)
{
    const L1Config cfg;
    for (unsigned i = 0; i < cfg.mshrs; ++i) {
        EXPECT_EQ(l1.access(0x10000 + i * 0x40, false, i + 1, 0),
                  L1Result::MissQueued);
    }
    EXPECT_EQ(l1.access(0xFF000, false, 99, 0), L1Result::Blocked);
}

TEST_F(L1Fixture, StoreMissInstallsDirtyAndWritesBack)
{
    l1.access(0x3000, true, 1, 0); // store miss
    l1.tick(1);
    ASSERT_EQ(sink.pushed.size(), 1u);
    EXPECT_EQ(sink.pushed[0]->op, MemOp::Write);
    l1.fill(sink.pushed[0], 10);

    // Evict it by filling the set; L1 is 32KB 4-way => 128 sets, so
    // same-set addresses are 0x2000 (128*64) apart.
    sink.pushed.clear();
    for (int i = 1; i <= 4; ++i) {
        const Addr a = 0x3000 + static_cast<Addr>(i) * 128 * 64;
        l1.access(a, false, 10 + i, 20 + i);
    }
    for (Tick t = 25; t < 40; ++t)
        l1.tick(t);
    for (auto &req : sink.pushed) {
        if (req->blockAddr == 0x3000)
            FAIL() << "should not refetch";
    }
    // Fill all four misses to trigger the eviction of 0x3000.
    auto pushed = sink.pushed;
    for (auto &req : pushed) {
        if (req->op != MemOp::Writeback)
            l1.fill(req, 100);
    }
    for (Tick t = 100; t < 110; ++t)
        l1.tick(t);
    bool saw_wb = false;
    for (auto &req : sink.pushed) {
        if (req->op == MemOp::Writeback && req->blockAddr == 0x3000)
            saw_wb = true;
    }
    EXPECT_TRUE(saw_wb);
    EXPECT_EQ(l1.statsGroup().name(), "l1.test");
}

/** Gate refusing the first N attempts. */
class CountingGate : public SourceGate
{
  public:
    explicit CountingGate(int refusals) : refusals_(refusals) {}

    bool
    tryIssue(MemRequest &, Tick) override
    {
        ++attempts;
        if (refusals_ > 0) {
            --refusals_;
            return false;
        }
        return true;
    }

    int attempts = 0;

  private:
    int refusals_;
};

TEST_F(L1Fixture, GateBackPressuresSendQueue)
{
    CountingGate gate(3);
    l1.setGate(&gate);
    l1.access(0x5000, false, 1, 0);
    for (Tick t = 1; t <= 3; ++t)
        l1.tick(t);
    EXPECT_TRUE(sink.pushed.empty());
    EXPECT_EQ(l1.shaperStallCycles(), 3u);
    l1.tick(4);
    EXPECT_EQ(sink.pushed.size(), 1u);
    EXPECT_EQ(gate.attempts, 4);
}

struct LlcFixture : public ::testing::Test
{
    LlcFixture()
    {
        LlcConfig cfg;
        cfg.sizeBytes = 64 * 1024;
        cfg.numBanks = 2;
        llc = std::make_unique<SharedLlc>("llc.test", cfg, 2, pool,
                                          events);
        llc->setDownstream(&mc);
        l1a = std::make_unique<L1Cache>("l1.a", L1Config{}, 0, pool);
        l1b = std::make_unique<L1Cache>("l1.b", L1Config{}, 1, pool);
        llc->setL1(0, l1a.get());
        llc->setL1(1, l1b.get());
    }

    ReqPtr
    demand(Addr addr, CoreId core, SeqNum seq, Tick now)
    {
        auto r = pool.make(seq, addr, MemOp::Read, core, now);
        r->l1MissAt = now;
        return r;
    }

    RequestPool pool;
    EventQueue events;
    RecordingSink mc;
    std::unique_ptr<SharedLlc> llc;
    std::unique_ptr<L1Cache> l1a, l1b;
};

TEST_F(LlcFixture, MissForwardsToMemory)
{
    auto r = demand(0x8000, 0, 1, 0);
    ASSERT_TRUE(llc->canAccept(*r));
    llc->push(r, 0);
    llc->tick(1);
    ASSERT_EQ(mc.pushed.size(), 1u);
    EXPECT_EQ(llc->misses(), 1u);
    EXPECT_FALSE(r->llcHit);
}

TEST_F(LlcFixture, FillThenHit)
{
    auto r = demand(0x8000, 0, 1, 0);
    llc->push(r, 0);
    llc->tick(1);
    llc->fillFromMem(mc.pushed[0], 100);

    auto r2 = demand(0x8000, 1, 2, 200);
    llc->push(r2, 200);
    llc->tick(201);
    EXPECT_EQ(llc->hits(), 1u);
    EXPECT_TRUE(r2->llcHit);
    EXPECT_EQ(llc->coreHits(1), 1u);
}

TEST_F(LlcFixture, MergesOutstandingMisses)
{
    auto r1 = demand(0x8000, 0, 1, 0);
    auto r2 = demand(0x8000, 1, 7, 0);
    llc->push(r1, 0);
    llc->push(r2, 0);
    llc->tick(1);
    llc->tick(2);
    EXPECT_EQ(mc.pushed.size(), 1u); // merged
    EXPECT_EQ(llc->misses(), 2u);
}

TEST_F(LlcFixture, StallsWhenMemoryFull)
{
    mc.accepting = false;
    auto r = demand(0x8000, 0, 1, 0);
    llc->push(r, 0);
    for (Tick t = 1; t < 5; ++t)
        llc->tick(t);
    EXPECT_TRUE(mc.pushed.empty());
    mc.accepting = true;
    llc->tick(6);
    EXPECT_EQ(mc.pushed.size(), 1u);
}

TEST_F(LlcFixture, BanksByAddress)
{
    auto r0 = demand(0x0, 0, 1, 0);
    auto r1 = demand(0x40, 0, 2, 0); // next block -> other bank
    llc->push(r0, 0);
    llc->push(r1, 0);
    llc->tick(1); // both banks process in the same cycle
    EXPECT_EQ(mc.pushed.size(), 2u);
}

TEST_F(LlcFixture, WritebackInstallsDirty)
{
    auto wb = pool.make(100, 0x8000, MemOp::Writeback, 0, 0);
    llc->push(wb, 0);
    llc->tick(1);
    EXPECT_TRUE(mc.pushed.empty()); // absorbed

    // A later demand hits.
    auto r = demand(0x8000, 1, 2, 10);
    llc->push(r, 10);
    llc->tick(11);
    EXPECT_EQ(llc->hits(), 1u);
}

/** Gate recording LLC hit/miss notifications. */
class NotifyGate : public SourceGate
{
  public:
    bool tryIssue(MemRequest &, Tick) override { return true; }

    void
    onLlcResponse(const MemRequest &, bool hit, Tick) override
    {
        notifications.push_back(hit);
    }

    std::vector<bool> notifications;
};

TEST_F(LlcFixture, NotifiesGateOnHitAndMiss)
{
    NotifyGate gate;
    llc->setGate(0, &gate);
    auto r = demand(0x8000, 0, 1, 0);
    llc->push(r, 0);
    llc->tick(1);
    ASSERT_EQ(gate.notifications.size(), 1u);
    EXPECT_FALSE(gate.notifications[0]);

    llc->fillFromMem(mc.pushed[0], 50);
    auto r2 = demand(0x8000, 0, 2, 60);
    llc->push(r2, 60);
    llc->tick(61);
    ASSERT_EQ(gate.notifications.size(), 2u);
    EXPECT_TRUE(gate.notifications[1]);
}


TEST_F(L1Fixture, CoalesceBlocksWhenTargetsFull)
{
    // MSHR target list caps at mshrTargets (16): the 17th coalesced
    // load to the same block must be refused, not dropped.
    l1.access(0x7000, false, 1, 0);
    for (SeqNum s = 2; s <= 16; ++s)
        EXPECT_EQ(l1.access(0x7000, false, s, 0),
                  L1Result::MissQueued);
    EXPECT_EQ(l1.access(0x7000, false, 17, 0), L1Result::Blocked);
}

TEST_F(L1Fixture, WritebackWaitsForDownstreamSpace)
{
    // Fill a set with dirty lines, then evict while the sink
    // refuses: the writeback queues and drains when space appears.
    l1.access(0x3000, true, 1, 0);
    l1.tick(1);
    ASSERT_EQ(sink.pushed.size(), 1u);
    l1.fill(sink.pushed[0], 5);
    sink.pushed.clear();

    // Force the eviction of 0x3000 (same set: +128*64 strides).
    for (int i = 1; i <= 4; ++i)
        l1.access(0x3000 + static_cast<Addr>(i) * 128 * 64, false,
                  10 + i, 10 + i);
    for (Tick t = 15; t < 25; ++t)
        l1.tick(t);
    auto fills = sink.pushed;
    for (auto &req : fills)
        l1.fill(req, 30);

    sink.pushed.clear();
    sink.accepting = false;
    for (Tick t = 31; t < 40; ++t)
        l1.tick(t);
    EXPECT_TRUE(sink.pushed.empty());
    sink.accepting = true;
    for (Tick t = 40; t < 45; ++t)
        l1.tick(t);
    bool saw_wb = false;
    for (auto &req : sink.pushed)
        saw_wb |= req->op == MemOp::Writeback &&
                  req->blockAddr == 0x3000;
    EXPECT_TRUE(saw_wb);
}

TEST_F(LlcFixture, OutstandingMissCapStallsBank)
{
    // Saturate the miss map: further new-block misses stall in the
    // bank queue rather than overrunning the cap.
    LlcConfig cfg;
    cfg.sizeBytes = 64 * 1024;
    cfg.numBanks = 1;
    cfg.maxOutstandingMisses = 2;
    auto small = std::make_unique<SharedLlc>("llc.cap", cfg, 1, pool,
                                             events);
    small->setDownstream(&mc);

    for (SeqNum i = 0; i < 3; ++i)
        small->push(demand(0x10000 + i * 0x40, 0, i, 0), 0);
    for (Tick t = 1; t < 6; ++t)
        small->tick(t);
    EXPECT_EQ(mc.pushed.size(), 2u); // third miss held back

    // A fill frees a slot and the third proceeds.
    small->fillFromMem(mc.pushed[0], 50);
    small->tick(51);
    EXPECT_EQ(mc.pushed.size(), 3u);
}

} // namespace
} // namespace mitts

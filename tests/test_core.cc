/**
 * @file
 * Unit tests for the trace-driven core model: dispatch/retire widths,
 * load blocking, window limits, store write-buffer semantics, L1-hit
 * ready ticks and the wake claims of the sleepable states.
 */

#include <gtest/gtest.h>

#include "core/core.hh"
#include "trace/synth_trace.hh"

namespace mitts
{
namespace
{

/** Downstream sink that can hold fills until released. */
class HoldSink : public MemSink
{
  public:
    bool canAccept(const MemRequest &) const override { return true; }

    void
    push(ReqPtr req, Tick now) override
    {
        (void)now;
        held.push_back(std::move(req));
    }

    std::vector<ReqPtr> held;
};

struct CoreFixture : public ::testing::Test
{
    void
    build(std::vector<TraceOp> ops, const L1Config &l1_cfg = {})
    {
        trace = std::make_unique<ScriptedTrace>(std::move(ops));
        l1 = std::make_unique<L1Cache>("l1", l1_cfg, 0, pool);
        l1->setDownstream(&sink);
        core = std::make_unique<Core>("core", 0, CoreConfig{},
                                      trace.get(), l1.get());
        l1->setClient(core.get());
    }

    /** Install `block` in the L1 (a store miss and its fill) before
     *  the core runs, so loads to it hit. */
    void
    warm(Addr block)
    {
        ASSERT_EQ(l1->access(block, true, 1ULL << 40, now),
                  L1Result::MissQueued);
        l1->tick(now);
        ASSERT_EQ(sink.held.size(), 1u);
        l1->fill(sink.held.back(), now);
        sink.held.clear();
    }

    void
    cycle(Tick n)
    {
        for (Tick i = 0; i < n; ++i) {
            core->tick(now);
            l1->tick(now);
            ++now;
        }
    }

    /** The core's wake claim after the last executed cycle. */
    Tick claim() const { return core->nextWakeTick(now - 1); }

    RequestPool pool;
    HoldSink sink;
    std::unique_ptr<ScriptedTrace> trace;
    std::unique_ptr<L1Cache> l1;
    std::unique_ptr<Core> core;
    Tick now = 0;
};

TEST_F(CoreFixture, RetiresAtWidthWhenComputeBound)
{
    // Pure compute: huge gaps, memory op rarely.
    build({{100000, false, false, 0x40}});
    cycle(1000);
    // Sustained compute IPC is modelled at 1.5 (CoreConfig), so a
    // compute-bound stretch retires ~1500 instructions in 1000
    // cycles.
    EXPECT_GT(core->instructions(), 1400u);
    EXPECT_LE(core->instructions(), 1600u);
}

TEST_F(CoreFixture, LoadMissBlocksRetirement)
{
    // Immediate load, then compute.
    build({{0, false, false, 0x1000}, {100000, false, false, 0x2000}});
    cycle(200);
    // The first load never gets its fill (sink holds it): the window
    // fills with compute behind the stuck load, then stalls.
    EXPECT_EQ(core->instructions(), 0u);
    EXPECT_GT(core->memStallCycles(), 100u);
    ASSERT_GE(sink.held.size(), 1u);

    // Release the fill; retirement resumes.
    l1->fill(sink.held[0], now);
    cycle(100);
    EXPECT_GT(core->instructions(), 100u);
}

TEST_F(CoreFixture, StoresDoNotBlock)
{
    build({{0, true, false, 0x1000}, {100000, false, false, 0x2000}});
    cycle(200);
    // Store miss retires immediately; compute flows on at the
    // sustained compute IPC (1.5).
    EXPECT_GT(core->instructions(), 250u);
    EXPECT_EQ(core->stores(), 1u);
}

TEST_F(CoreFixture, WindowLimitsOutstandingWork)
{
    // All loads to distinct blocks, no gaps: MSHRs (8) bound the
    // in-flight misses; the send queue and window bound the rest.
    std::vector<TraceOp> ops;
    for (int i = 0; i < 64; ++i)
        ops.push_back({0, false, false,
                       static_cast<Addr>(0x10000 + i * 0x40)});
    build(std::move(ops));
    cycle(300);
    EXPECT_EQ(core->instructions(), 0u); // nothing completes
    EXPECT_LE(sink.held.size(), 8u);     // MSHR bound
    EXPECT_GE(sink.held.size(), 1u);
}

TEST_F(CoreFixture, L1HitLoadsComplete)
{
    // Two accesses to the same block, far enough apart that the
    // second issues after the first's fill: miss then hit.
    build({{0, false, false, 0x1000}, {600, false, false, 0x1000},
           {100000, false, false, 0x2000}});
    cycle(50);
    ASSERT_GE(sink.held.size(), 1u);
    l1->fill(sink.held[0], now);
    cycle(800);
    EXPECT_GT(core->instructions(), 100u);
    EXPECT_GE(l1->hits(), 1u);
}

TEST_F(CoreFixture, L1HitLoadRetiresAtDispatchPlusHitLatency)
{
    L1Config l1_cfg;
    l1_cfg.hitLatency = 5;
    build({{0, false, false, 0x1000}, {100000, false, false, 0x2000}},
          l1_cfg);
    warm(0x1000);
    cycle(1); // tick 0 dispatches the load: an L1 hit
    EXPECT_EQ(l1->hits(), 1u);
    EXPECT_EQ(core->loads(), 1u);
    cycle(4); // ticks 1..4: the head is not ready yet
    EXPECT_EQ(core->instructions(), 0u);
    cycle(1); // tick 5 = dispatch + hitLatency
    EXPECT_GE(core->instructions(), 1u);
}

// A sleeping core claims the ready tick of the L1 hit it waits on:
// no completion event is left to wake it, so a later claim would let
// the kernel skip past the retirement.
TEST_F(CoreFixture, RobStallClaimsHeadHitReadyTick)
{
    L1Config l1_cfg;
    l1_cfg.hitLatency = 64;
    // Loads to one block, all hits: four dispatch per cycle and the
    // 128-entry window is full from tick 32, head ready at 64.
    build({{0, false, false, 0x1000}}, l1_cfg);
    warm(0x1000);
    cycle(40);
    EXPECT_EQ(core->instructions(), 0u);
    EXPECT_EQ(claim(), 64u);
    cycle(24); // ticks 40..63
    EXPECT_EQ(core->instructions(), 0u);
    cycle(1);
    EXPECT_EQ(core->instructions(), 4u);
}

TEST_F(CoreFixture, ChaseStallClaimsHeadHitReadyTick)
{
    L1Config l1_cfg;
    l1_cfg.hitLatency = 20;
    // A hit, then a chase load whose pointer that hit produces.
    build({{0, false, false, 0x1000}, {0, false, true, 0x1000}}, l1_cfg);
    warm(0x1000);
    cycle(3); // tick 1 finds the chase load waiting on the head
    EXPECT_EQ(core->loads(), 1u);
    EXPECT_EQ(claim(), 20u);
}

TEST_F(CoreFixture, ChaseStallClaimsProducerHitReadyTick)
{
    L1Config l1_cfg;
    l1_cfg.hitLatency = 20;
    // A miss at the head that never fills, then a hit, then a chase
    // load on the hit: the producer, not the head, ends the stall.
    build({{0, false, false, 0x8000},
           {0, false, false, 0x1000},
           {0, false, true, 0x1000}},
          l1_cfg);
    warm(0x1000);
    cycle(3);
    EXPECT_EQ(core->loads(), 2u);
    EXPECT_EQ(claim(), 20u);
}

TEST_F(CoreFixture, L1BlockedClaimsHeadHitReadyTick)
{
    L1Config l1_cfg;
    l1_cfg.hitLatency = 20;
    // A hit, then loads to nine distinct blocks: the ninth miss finds
    // all eight MSHRs taken (tick 2) and keeps being rejected.
    std::vector<TraceOp> ops{{0, false, false, 0x1000}};
    for (Addr i = 0; i < 9; ++i)
        ops.push_back({0, false, false, 0x10000 + i * 0x40});
    build(std::move(ops), l1_cfg);
    warm(0x1000);
    cycle(4);
    EXPECT_EQ(core->loads(), 9u);
    EXPECT_EQ(claim(), 20u);
}

TEST_F(CoreFixture, StallForPausesExecution)
{
    build({{100000, false, false, 0x40}});
    cycle(10);
    const auto before = core->instructions();
    core->stallFor(100, now);
    cycle(100);
    EXPECT_EQ(core->instructions(), before);
    cycle(100);
    EXPECT_GT(core->instructions(), before);
}

} // namespace
} // namespace mitts

/**
 * @file
 * Unit tests for the trace-driven core model: dispatch/retire widths,
 * load blocking, window limits, store write-buffer semantics.
 */

#include <gtest/gtest.h>

#include "core/core.hh"
#include "sim/event_queue.hh"
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

/** Delivers L1-hit completions to an L1 client, the role the
 *  System's event handler plays for a core. */
struct ToClient : public EventHandler
{
    void
    fire(const EventDesc &d, Tick when) override
    {
        client->loadComplete(d.seq, when);
    }

    L1Client *client = nullptr;
};

struct CoreFixture : public ::testing::Test
{
    void
    build(std::vector<TraceOp> ops)
    {
        trace = std::make_unique<ScriptedTrace>(std::move(ops));
        l1 = std::make_unique<L1Cache>("l1", L1Config{}, 0, pool,
                                       events);
        l1->setDownstream(&sink);
        core = std::make_unique<Core>("core", 0, CoreConfig{},
                                      trace.get(), l1.get());
        l1->setClient(core.get());
        toCore.client = core.get();
        events.setHandler(&toCore);
    }

    void
    cycle(Tick n)
    {
        for (Tick i = 0; i < n; ++i) {
            events.runDue(now);
            core->tick(now);
            l1->tick(now);
            ++now;
        }
    }

    RequestPool pool;
    EventQueue events;
    ToClient toCore;
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

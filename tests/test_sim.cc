/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering, the
 * cycle-stepped driver, and quiescence-aware skip-ahead.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <queue>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include "base/random.hh"
#include "ckpt/serialize.hh"
#include "sim/clocked.hh"
#include "sim/event_queue.hh"
#include "sim/simulation.hh"
#include "system/system.hh"
#include "telemetry/sampler.hh"

namespace mitts
{
namespace
{

/** Arena the test events' requests come from. */
RequestPool &
testPool()
{
    static RequestPool pool;
    return pool;
}

/** A test event identified by `id` (carried as its request's seq). */
EventDesc
ev(SeqNum id)
{
    return EventDesc::memComplete(
        testPool().make(id, 0, MemOp::Read, 0, 0));
}

/**
 * Records every fired event as (tick, request seq) and then runs an
 * optional hook, through which a test schedules follow-up events.
 */
struct RecordingHandler : public EventHandler
{
    void
    fire(const EventDesc &d, Tick when) override
    {
        fired.emplace_back(when, d.req->seq);
        if (hook)
            hook(d, when);
    }

    /** Request seqs in firing order. */
    std::vector<SeqNum>
    ids() const
    {
        std::vector<SeqNum> out;
        for (const auto &[when, id] : fired)
            out.push_back(id);
        return out;
    }

    std::vector<std::pair<Tick, SeqNum>> fired;
    std::function<void(const EventDesc &, Tick)> hook;
};

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    RecordingHandler h;
    q.setHandler(&h);
    q.schedule(10, ev(10));
    q.schedule(5, ev(5));
    q.schedule(7, ev(7));
    q.runDue(10);
    const std::vector<SeqNum> fired = h.ids();
    ASSERT_EQ(fired.size(), 3u);
    EXPECT_EQ(fired[0], 5u);
    EXPECT_EQ(fired[1], 7u);
    EXPECT_EQ(fired[2], 10u);
}

TEST(EventQueue, SameTickFifo)
{
    EventQueue q;
    RecordingHandler h;
    q.setHandler(&h);
    for (SeqNum i = 0; i < 5; ++i)
        q.schedule(3, ev(i));
    q.runDue(3);
    const std::vector<SeqNum> fired = h.ids();
    for (SeqNum i = 0; i < 5; ++i)
        EXPECT_EQ(fired[i], i);
}

TEST(EventQueue, DoesNotFireEarly)
{
    EventQueue q;
    RecordingHandler h;
    q.setHandler(&h);
    q.schedule(100, ev(1));
    q.runDue(99);
    EXPECT_TRUE(h.fired.empty());
    EXPECT_EQ(q.nextEventTick(), 100u);
    q.runDue(100);
    EXPECT_FALSE(h.fired.empty());
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue q;
    RecordingHandler h;
    q.setHandler(&h);
    h.hook = [&](const EventDesc &d, Tick) {
        if (d.req->seq == 1)
            q.schedule(1, ev(2));
    };
    q.schedule(1, ev(1));
    q.runDue(5);
    EXPECT_EQ(h.fired.size(), 2u);
}

class TickCounter : public Clocked
{
  public:
    TickCounter() : Clocked("tc") {}
    void tick(Tick now) override { ticks.push_back(now); }
    std::vector<Tick> ticks;
};

TEST(Simulation, RunsComponentsEachCycle)
{
    Simulation sim;
    TickCounter c;
    sim.add(&c);
    sim.run(5);
    ASSERT_EQ(c.ticks.size(), 5u);
    for (Tick i = 0; i < 5; ++i)
        EXPECT_EQ(c.ticks[i], i);
    EXPECT_EQ(sim.now(), 5u);
}

TEST(Simulation, RunUntilPredicate)
{
    Simulation sim;
    TickCounter c;
    sim.add(&c);
    const bool hit =
        sim.runUntil([&] { return c.ticks.size() >= 10; }, 100);
    EXPECT_TRUE(hit);
    EXPECT_EQ(c.ticks.size(), 10u);
}

TEST(Simulation, RunUntilRespectsCap)
{
    Simulation sim;
    TickCounter c;
    sim.add(&c);
    const bool hit = sim.runUntil([] { return false; }, 50);
    EXPECT_FALSE(hit);
    EXPECT_EQ(sim.now(), 50u);
}

TEST(Simulation, EventsRunBeforeComponentsInACycle)
{
    Simulation sim;
    std::vector<std::string> order;

    class Obs : public Clocked
    {
      public:
        explicit Obs(std::vector<std::string> &o)
            : Clocked("obs"), order_(o)
        {
        }
        void tick(Tick) override { order_.push_back("comp"); }

      private:
        std::vector<std::string> &order_;
    };

    Obs obs(order);
    sim.add(&obs);
    RecordingHandler h;
    h.hook = [&](const EventDesc &, Tick) { order.push_back("event"); };
    sim.events().setHandler(&h);
    sim.events().schedule(0, ev(1));
    sim.step();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], "event");
    EXPECT_EQ(order[1], "comp");
}

// ---- EventQueue scheduling semantics ------------------------------

TEST(EventQueue, SameTickScheduleInsideDrainFiresInSameDrain)
{
    EventQueue q;
    RecordingHandler h;
    q.setHandler(&h);
    h.hook = [&](const EventDesc &d, Tick) {
        if (d.req->seq == 1)
            q.schedule(3, ev(2));
    };
    q.schedule(3, ev(1));
    q.runDue(3);
    const std::vector<SeqNum> fired = h.ids();
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[0], 1u);
    EXPECT_EQ(fired[1], 2u);
}

#ifdef NDEBUG
TEST(EventQueue, PastScheduleClampsToDrainHorizon)
{
    EventQueue q;
    RecordingHandler h;
    q.setHandler(&h);
    q.runDue(10);
    q.schedule(5, ev(1));
    // Clamped up to the horizon instead of being lost below it.
    EXPECT_EQ(q.nextEventTick(), 10u);
    q.runDue(10);
    EXPECT_FALSE(h.fired.empty());
}
#else
TEST(EventQueueDeathTest, PastSchedulePanicsInDebug)
{
    EXPECT_DEATH(
        {
            EventQueue q;
            q.runDue(10);
            q.schedule(5, ev(1));
        },
        "scheduled in the past");
}
#endif

// ---- Calendar storage ---------------------------------------------

// Ticks one window apart share a list index; only the nearer one is
// due.
TEST(EventQueue, WindowAliasIsNotDue)
{
    EventQueue q;
    RecordingHandler h;
    q.setHandler(&h);
    q.schedule(5, ev(1));
    q.schedule(5 + EventQueue::kWindow, ev(2));
    q.runDue(5);
    EXPECT_EQ(h.ids(), (std::vector<SeqNum>{1}));
    EXPECT_EQ(q.nextEventTick(), 5 + EventQueue::kWindow);
    q.runDue(5 + EventQueue::kWindow);
    EXPECT_EQ(h.ids(), (std::vector<SeqNum>{1, 2}));
}

// Events scheduled beyond the window, then near events for the same
// tick once the window covers it: all fire in scheduling order.
TEST(EventQueue, FarAndNearEventsOnOneTickKeepSchedulingOrder)
{
    EventQueue q;
    RecordingHandler h;
    q.setHandler(&h);
    const Tick t = 3 * EventQueue::kWindow + 17;
    q.schedule(t, ev(1));     // far
    q.schedule(t + 1, ev(9)); // far, next tick
    q.schedule(t, ev(2));     // far
    q.runDue(t - 100);        // window now covers t
    EXPECT_TRUE(h.fired.empty());
    q.schedule(t, ev(3)); // near
    q.schedule(t + 1, ev(10));
    q.schedule(t, ev(4));
    EXPECT_EQ(q.size(), 6u);
    EXPECT_EQ(q.nextEventTick(), t);
    q.runDue(t + 1);
    EXPECT_EQ(h.ids(), (std::vector<SeqNum>{1, 2, 3, 4, 9, 10}));
    EXPECT_TRUE(q.empty());
}

// One drain spanning many windows fires every event in tick order.
TEST(EventQueue, DrainAcrossSeveralWindows)
{
    EventQueue q;
    RecordingHandler h;
    q.setHandler(&h);
    q.schedule(4 * EventQueue::kWindow, ev(3));
    q.schedule(EventQueue::kWindow - 1, ev(1));
    q.schedule(2 * EventQueue::kWindow + 1, ev(2));
    q.schedule(9 * EventQueue::kWindow, ev(4));
    q.runDue(5 * EventQueue::kWindow);
    EXPECT_EQ(h.ids(), (std::vector<SeqNum>{1, 2, 3}));
    ASSERT_EQ(h.fired.size(), 3u);
    EXPECT_EQ(h.fired[1].first, 2 * EventQueue::kWindow + 1);
    EXPECT_EQ(q.nextEventTick(), 9 * EventQueue::kWindow);
}

// A skip-ahead jump longer than the window, with and without events
// waiting on the far side.
TEST(EventQueue, SkipJumpLongerThanWindow)
{
    EventQueue q;
    RecordingHandler h;
    q.setHandler(&h);
    q.schedule(3, ev(1));
    q.schedule(2'000, ev(2));
    q.schedule(5'000, ev(3));
    q.runDue(3);
    EXPECT_EQ(q.nextEventTick(), 2'000u);
    q.runDue(4'999);
    EXPECT_EQ(h.ids(), (std::vector<SeqNum>{1, 2}));
    q.runDue(100'000); // lands far past every event
    EXPECT_EQ(h.ids(), (std::vector<SeqNum>{1, 2, 3}));
    EXPECT_EQ(q.nextEventTick(), kTickNever);
    // The window restarts at the new horizon.
    q.schedule(100'010, ev(4));
    q.schedule(100'000 + EventQueue::kWindow, ev(5));
    EXPECT_EQ(q.nextEventTick(), 100'010u);
    q.runDue(100'010);
    EXPECT_EQ(h.ids(), (std::vector<SeqNum>{1, 2, 3, 4}));
    q.runDue(100'000 + EventQueue::kWindow);
    EXPECT_EQ(h.ids(), (std::vector<SeqNum>{1, 2, 3, 4, 5}));
}

// A window that starts late in the list array wraps to its front:
// ticks past the wrap still come after the ones before it.
TEST(EventQueue, ListIndexWrapsAround)
{
    EventQueue q;
    RecordingHandler h;
    q.setHandler(&h);
    const Tick base = 5 * EventQueue::kWindow - 12;
    q.runDue(base);
    q.schedule(base + 20, ev(4)); // wraps to a low index
    q.schedule(base + 11, ev(2));
    q.schedule(base + 12, ev(3)); // first index of the array
    q.schedule(base + 10, ev(1));
    q.schedule(base + EventQueue::kWindow - 1, ev(5));
    EXPECT_EQ(q.nextEventTick(), base + 10);
    q.runDue(base + 11);
    EXPECT_EQ(h.ids(), (std::vector<SeqNum>{1, 2}));
    EXPECT_EQ(q.nextEventTick(), base + 12);
    q.runDue(base + EventQueue::kWindow);
    EXPECT_EQ(h.ids(), (std::vector<SeqNum>{1, 2, 3, 4, 5}));
}

/**
 * Differential test: random schedules (near, across the window edge
 * and far), drains with short steps and long jumps, handlers that
 * schedule more events (same tick included) and checkpoint round
 * trips, against a reference (when, seq) priority queue.
 */
TEST(EventQueue, MatchesReferenceQueueUnderRandomOperations)
{
    using Key = std::tuple<Tick, std::uint64_t, SeqNum>;
    std::priority_queue<Key, std::vector<Key>, std::greater<Key>> ref;
    std::uint64_t ref_seq = 0;
    SeqNum next_id = 1;
    Random rng(20260417);

    auto q = std::make_unique<EventQueue>();
    Tick horizon = 0;
    bool follow_ups = true;

    auto offset = [&] {
        const std::uint64_t r = rng.below(100);
        if (r < 60)
            return rng.below(8);
        if (r < 85)
            return rng.below(2 * EventQueue::kWindow);
        return rng.below(20 * EventQueue::kWindow);
    };
    auto add = [&](Tick when) {
        const SeqNum id = next_id++;
        q->schedule(when, ev(id));
        ref.emplace(when, ref_seq++, id);
    };

    RecordingHandler handler;
    handler.hook = [&](const EventDesc &d, Tick when) {
        ASSERT_FALSE(ref.empty());
        const auto [want_when, seq, want_id] = ref.top();
        ref.pop();
        ASSERT_EQ(when, want_when);
        ASSERT_EQ(d.req->seq, want_id);
        // Follow-ups at or after the drain horizon, often this tick.
        if (follow_ups && rng.below(4) == 0)
            add(horizon + (rng.below(3) == 0 ? 0 : offset()));
    };
    q->setHandler(&handler);

    for (int op = 0; op < 200'000; ++op) {
        const std::uint64_t r = rng.below(100);
        if (r < 55) {
            add(horizon + offset());
        } else if (r < 99) {
            horizon += rng.below(50) == 0 ? rng.below(3'000)
                                          : rng.below(4);
            q->runDue(horizon);
        } else {
            // Round trip through a checkpoint; pending order must
            // survive the renumbering.
            ckpt::Writer w;
            w.beginSection("events");
            ckpt::Archive save(w);
            q->checkpoint(save);
            w.endSection();
            ckpt::Reader rd(w.finish(0), 0);
            rd.bindPool(testPool());
            rd.beginSection("events");
            q = std::make_unique<EventQueue>();
            q->setHandler(&handler);
            ckpt::Archive load(rd);
            q->checkpoint(load);
            rd.endSection();
        }
        ASSERT_EQ(q->size(), ref.size()) << "op " << op;
        ASSERT_EQ(q->nextEventTick(),
                  ref.empty() ? kTickNever : std::get<0>(ref.top()))
            << "op " << op;
    }
    follow_ups = false;
    horizon += 100 * EventQueue::kWindow;
    q->runDue(horizon);
    EXPECT_TRUE(ref.empty());
    EXPECT_TRUE(q->empty());
    EXPECT_GT(handler.fired.size(), 100'000u);
}

// ---- Quiescence-aware skip-ahead ----------------------------------

TEST(Clocked, DefaultNextWakeTickIsNextCycle)
{
    TickCounter c;
    EXPECT_EQ(c.nextWakeTick(0), 1u);
    EXPECT_EQ(c.nextWakeTick(41), 42u);
}

/** Sleeps until a fixed tick, then runs every cycle; records both the
 *  cycles it executed and the fast-forwards applied to it. */
class Sleeper : public Clocked
{
  public:
    explicit Sleeper(Tick wake) : Clocked("sleeper"), wake_(wake) {}
    void tick(Tick now) override { ticks.push_back(now); }
    Tick
    nextWakeTick(Tick now) const override
    {
        return wake_ > now ? wake_ : now + 1;
    }
    void
    onFastForward(Tick from, Tick to) override
    {
        skips.emplace_back(from, to);
    }

    Tick wake_;
    std::vector<Tick> ticks;
    std::vector<std::pair<Tick, Tick>> skips;
};

TEST(SkipAhead, FastForwardsToComponentWake)
{
    Simulation sim;
    Sleeper s(100);
    sim.add(&s);
    sim.run(150);
    EXPECT_EQ(sim.now(), 150u);
    EXPECT_EQ(sim.cyclesSkipped(), 99u);
    // Cycle 0 executes (classification), then 100..149.
    ASSERT_EQ(s.ticks.size(), 51u);
    EXPECT_EQ(s.ticks[0], 0u);
    EXPECT_EQ(s.ticks[1], 100u);
    EXPECT_EQ(s.ticks.back(), 149u);
    ASSERT_EQ(s.skips.size(), 1u);
    EXPECT_EQ(s.skips[0], std::make_pair(Tick{1}, Tick{100}));
}

TEST(SkipAhead, GlobalWakeIsMinOverComponents)
{
    Simulation sim;
    Sleeper late(300), early(40);
    sim.add(&late);
    sim.add(&early);
    sim.run(50);
    // The earlier sleeper bounds the whole system.
    ASSERT_GE(early.ticks.size(), 2u);
    EXPECT_EQ(early.ticks[1], 40u);
    EXPECT_EQ(late.ticks[1], 40u); // executed cycles tick everyone
    EXPECT_EQ(sim.cyclesSkipped(), 39u);
}

TEST(SkipAhead, LandsExactlyOnPendingEvent)
{
    Simulation sim;
    Sleeper s(1000);
    sim.add(&s);
    RecordingHandler h;
    sim.events().setHandler(&h);
    sim.events().schedule(40, ev(1));
    sim.run(60);
    EXPECT_FALSE(h.fired.empty());
    // Executed: cycle 0, the event cycle 40, nothing else.
    ASSERT_EQ(s.ticks.size(), 2u);
    EXPECT_EQ(s.ticks[1], 40u);
    EXPECT_EQ(sim.now(), 60u);
    EXPECT_EQ(sim.cyclesSkipped(), 58u);
}

TEST(SkipAhead, StopsAtRunBoundary)
{
    Simulation sim;
    Sleeper s(1000);
    sim.add(&s);
    sim.run(50);
    EXPECT_EQ(sim.now(), 50u);
    ASSERT_EQ(s.skips.size(), 1u);
    EXPECT_EQ(s.skips[0], std::make_pair(Tick{1}, Tick{50}));
    // A later run() resumes cleanly from the boundary.
    sim.run(10);
    EXPECT_EQ(sim.now(), 60u);
    ASSERT_EQ(s.ticks.size(), 2u);
    EXPECT_EQ(s.ticks[1], 50u);
}

TEST(SkipAhead, LandsOnTelemetryWindowBoundary)
{
    telemetry::ProbeRegistry reg;
    telemetry::SamplerOptions opts;
    opts.interval = 100;
    telemetry::TimeSeriesSampler sampler(reg, opts, nullptr);

    Simulation sim;
    Sleeper s(1000);
    sim.add(&sampler);
    sim.add(&s);
    sim.run(350);
    // Boundaries 100, 200, 300 all executed despite the idle system.
    EXPECT_EQ(sampler.windowsClosed(), 3u);
    EXPECT_GT(sim.cyclesSkipped(), 0u);
}

TEST(SkipAhead, DisabledExecutesEveryCycle)
{
    SimulationConfig cfg;
    cfg.skipAhead = false;
    Simulation sim(cfg);
    Sleeper s(100);
    sim.add(&s);
    sim.run(150);
    EXPECT_EQ(s.ticks.size(), 150u);
    EXPECT_EQ(sim.cyclesSkipped(), 0u);
    EXPECT_TRUE(s.skips.empty());
}

TEST(SkipAhead, RunUntilDrainsDueEventsBeforePredicate)
{
    Simulation sim;
    Sleeper s(1000);
    sim.add(&s);
    RecordingHandler h;
    sim.events().setHandler(&h);
    sim.events().schedule(50, ev(1));
    const bool hit =
        sim.runUntil([&] { return !h.fired.empty(); }, 200);
    EXPECT_TRUE(hit);
    // The predicate observes the event on the cycle it lands on.
    EXPECT_EQ(sim.now(), 50u);
}

TEST(SkipAhead, RunUntilSeesEveryExecutedCycle)
{
    Simulation sim;
    TickCounter c; // active every cycle: nothing may be skipped
    sim.add(&c);
    const bool hit =
        sim.runUntil([&] { return c.ticks.size() >= 7; }, 100);
    EXPECT_TRUE(hit);
    EXPECT_EQ(sim.now(), 7u);
    EXPECT_EQ(sim.cyclesSkipped(), 0u);
}

TEST(VerifySkip, ExecutesClaimedQuiescentRegions)
{
    SimulationConfig cfg;
    cfg.verifySkip = true;
    Simulation sim(cfg);
    Sleeper s(100);
    sim.add(&s);
    sim.run(150);
    // Every cycle executes (counters accrue naturally, no bulk
    // replication), while the wake claims are checked per cycle.
    EXPECT_EQ(s.ticks.size(), 150u);
    EXPECT_TRUE(s.skips.empty());
    EXPECT_EQ(sim.cyclesSkipped(), 0u);
}

/**
 * Claims a distant wake at the skip decision (polled with now == 0),
 * then reneges inside the region: an under-report. Keyed on `now`
 * rather than a call counter so the lie is the same however many
 * times the decision point polls.
 */
class Liar : public Clocked
{
  public:
    Liar() : Clocked("liar") {}
    void tick(Tick) override {}
    Tick
    nextWakeTick(Tick now) const override
    {
        return now == 0 ? now + 100 : now + 5;
    }
};

TEST(VerifySkipDeathTest, CatchesUnderReportedWake)
{
    EXPECT_DEATH(
        {
            SimulationConfig cfg;
            cfg.verifySkip = true;
            Simulation sim(cfg);
            Liar liar;
            sim.add(&liar);
            sim.run(150);
        },
        "under-reported");
}

// ---- Whole-system determinism (skip on vs off) --------------------

namespace
{

SystemConfig
throttledMix()
{
    SystemConfig cfg =
        SystemConfig::multiProgram({"gcc", "mcf", "libquantum"});
    cfg.gate = GateKind::Mitts;
    // Bottom-bin-only credits: long shaper blocks, so the run is
    // dominated by skippable globally-idle gaps.
    std::vector<std::uint32_t> credits(cfg.binSpec.numBins, 0);
    credits[cfg.binSpec.numBins - 1] = 2;
    cfg.mittsConfigs.assign(8, BinConfig(cfg.binSpec, credits));
    return cfg;
}

} // namespace

TEST(SkipAhead, FullSystemStatsAreBitIdentical)
{
    SystemConfig on = throttledMix();
    SystemConfig off = throttledMix();
    off.sim.skipAhead = false;

    System sys_on(on), sys_off(off);
    sys_on.run(60'000);
    sys_off.run(60'000);

    EXPECT_GT(sys_on.sim().cyclesSkipped(), 0u);
    EXPECT_EQ(sys_off.sim().cyclesSkipped(), 0u);

    std::ostringstream a, b;
    sys_on.dumpStats(a);
    sys_off.dumpStats(b);
    EXPECT_EQ(a.str(), b.str());
}

/** Stats of `sys`, including the static gates' own groups (which
 *  the system dump leaves out). */
std::string
allStats(System &sys)
{
    std::ostringstream os;
    sys.dumpStats(os);
    for (unsigned c = 0; c < sys.numCores(); ++c) {
        if (StaticRateGate *g = sys.staticGate(static_cast<CoreId>(c)))
            g->statsGroup().dump(os);
    }
    return os.str();
}

/** Stats of `cfg` run with and without skip-ahead must match byte
 *  for byte, and the skip-ahead run must actually skip. */
void
expectSkipInvariant(const SystemConfig &cfg, Tick cycles)
{
    SystemConfig off = cfg;
    off.sim.skipAhead = false;
    System sys_on(cfg), sys_off(off);
    sys_on.run(cycles);
    sys_off.run(cycles);

    EXPECT_GT(sys_on.sim().cyclesSkipped(), 0u);
    EXPECT_EQ(allStats(sys_on), allStats(sys_off));
}

// The static limiter, FST's throttles and the Rolling shaper hold
// exact integer tokens, so a core blocked on them sleeps through
// skip-ahead like one blocked on the Reset shaper.
TEST(SkipAhead, StaticGatedStatsAreBitIdentical)
{
    SystemConfig cfg =
        SystemConfig::multiProgram({"gcc", "mcf", "libquantum"});
    cfg.gate = GateKind::Static;
    // One integral and two non-integral intervals, one request per
    // ~5000 cycles (the matched-rate static baseline).
    cfg.staticIntervals = {5000.0, 4999.7, 153.6};
    expectSkipInvariant(cfg, 60'000);
}

TEST(SkipAhead, FstStatsAreBitIdentical)
{
    SystemConfig cfg =
        SystemConfig::multiProgram({"gcc", "mcf", "libquantum"});
    cfg.sched = SchedulerKind::Fst;
    cfg.fst.maxRate = 1.0 / 2000.0; // gate-bound even at full rate
    cfg.fst.interval = 10'000;      // several throttle adjustments
    cfg.fst.epochLength = 2'000;
    expectSkipInvariant(cfg, 60'000);
}

TEST(SkipAhead, RollingShaperStatsAreBitIdentical)
{
    SystemConfig cfg = throttledMix();
    cfg.binSpec.policy = ReplenishPolicy::Rolling;
    for (auto &c : cfg.mittsConfigs)
        c.spec.policy = ReplenishPolicy::Rolling;
    expectSkipInvariant(cfg, 60'000);
}

// ATLAS, TCM and MISE act only at deadlines (quanta, rank shuffles,
// estimator epochs, re-prioritizations), so each claims its next one
// and the memory controller sleeps in between instead of ticking
// every cycle.
TEST(SkipAhead, AtlasStatsAreBitIdentical)
{
    SystemConfig cfg = throttledMix();
    cfg.sched = SchedulerKind::Atlas;
    cfg.atlas.quantum = 10'000; // several re-rankings
    expectSkipInvariant(cfg, 60'000);
}

TEST(SkipAhead, TcmStatsAreBitIdentical)
{
    SystemConfig cfg = throttledMix();
    cfg.sched = SchedulerKind::Tcm;
    cfg.tcm.quantum = 10'000; // several re-clusterings and shuffles
    expectSkipInvariant(cfg, 60'000);
}

TEST(SkipAhead, MiseStatsAreBitIdentical)
{
    SystemConfig cfg = throttledMix();
    cfg.sched = SchedulerKind::Mise;
    cfg.mise.epochLength = 2'000;
    cfg.mise.intervalLength = 10'000; // several re-prioritizations
    expectSkipInvariant(cfg, 60'000);
}

TEST(SkipAhead, FullSystemRunUntilInstructionsMatches)
{
    SystemConfig on = throttledMix();
    SystemConfig off = throttledMix();
    off.sim.skipAhead = false;

    System sys_on(on), sys_off(off);
    const auto ra = sys_on.runUntilInstructions(3'000, 400'000);
    const auto rb = sys_off.runUntilInstructions(3'000, 400'000);

    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra[i].completed, rb[i].completed) << i;
        EXPECT_EQ(ra[i].completedAt, rb[i].completedAt) << i;
        EXPECT_EQ(ra[i].instructions, rb[i].instructions) << i;
        EXPECT_EQ(ra[i].memStallCycles, rb[i].memStallCycles) << i;
    }
}

} // namespace
} // namespace mitts

/**
 * @file
 * System-level tests: construction for every scheduler/gate combo,
 * forward progress, determinism, metrics.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "base/kv_text.hh"
#include "system/metrics.hh"
#include "system/runner.hh"
#include "system/system.hh"
#include "trace/synth_trace.hh"

namespace mitts
{
namespace
{

SystemConfig
smallSingle(const std::string &app)
{
    SystemConfig cfg = SystemConfig::singleProgram(app);
    cfg.seed = 99;
    return cfg;
}

TEST(System, SingleProgramMakesProgress)
{
    System sys(smallSingle("gcc"));
    sys.run(50'000);
    // gcc is pointer-chase limited at a 64KB LLC; a few thousand
    // instructions in 50k cycles is the expected ballpark.
    EXPECT_GT(sys.core(0).instructions(), 4'000u);
    EXPECT_GT(sys.l1(0).misses(), 0u);
    EXPECT_GT(sys.memController().completed(), 0u);
}

TEST(System, DeterministicAcrossRuns)
{
    auto run_once = [] {
        System sys(smallSingle("mcf"));
        sys.run(30'000);
        return std::tuple{sys.core(0).instructions(),
                          sys.llc().misses(),
                          sys.memController().completed()};
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(System, SeedChangesBehaviour)
{
    SystemConfig a = smallSingle("mcf");
    SystemConfig b = smallSingle("mcf");
    b.seed = 100;
    System sa(a), sb(b);
    sa.run(30'000);
    sb.run(30'000);
    EXPECT_NE(sa.core(0).instructions(), sb.core(0).instructions());
}

class AllSchedulers
    : public ::testing::TestWithParam<SchedulerKind>
{
};

TEST_P(AllSchedulers, MultiProgramRunsAndProgresses)
{
    SystemConfig cfg =
        SystemConfig::multiProgram({"gcc", "mcf", "sjeng", "bzip"});
    cfg.sched = GetParam();
    cfg.seed = 7;
    // Scale periodic scheduler state to the short run.
    cfg.tcm.quantum = 10'000;
    cfg.mise.intervalLength = 20'000;
    cfg.fst.interval = 10'000;
    cfg.memguard.period = 10'000;
    System sys(cfg);
    sys.run(60'000);
    // Threshold is low: strict-rank schedulers (TCM, MISE) legally
    // slow the bottom-ranked core within a quantum, but nothing may
    // be starved outright.
    for (CoreId c = 0; c < 4; ++c)
        EXPECT_GT(sys.core(c).instructions(), 400u)
            << "core " << c << " stuck under scheduler "
            << schedulerName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Schedulers, AllSchedulers,
    ::testing::ValuesIn(allSchedulers()));

TEST(NameRegistry, CliNamesRoundTrip)
{
    for (SchedulerKind k : allSchedulers())
        EXPECT_EQ(schedulerFromName(schedulerCliName(k)), k);
    for (const auto &[g, name] : kGates)
        EXPECT_EQ(gateFromName(name), g);
    EXPECT_THROW(schedulerFromName("parbs"), ConfigError);
    EXPECT_THROW(schedulerFromName("FR-FCFS"), ConfigError);
    EXPECT_THROW(gateFromName("Static"), ConfigError);
}

TEST(NameRegistry, DisplayNamesUniqueAndUnchanged)
{
    // Reports and bench tables print these; they must not drift.
    std::vector<std::string> names;
    for (SchedulerKind k : allSchedulers())
        names.push_back(schedulerName(k));
    EXPECT_EQ(names, (std::vector<std::string>{"FR-FCFS", "FCFS",
                                               "FairQueue", "ATLAS", "TCM",
                                               "SourceThro", "MemGuard",
                                               "MISE"}));
    EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
              names.size());
}

TEST(System, MittsGateInstalledPerCore)
{
    SystemConfig cfg = SystemConfig::multiProgram({"gcc", "mcf"});
    cfg.gate = GateKind::Mitts;
    System sys(cfg);
    EXPECT_NE(sys.shaper(0), nullptr);
    EXPECT_NE(sys.shaper(1), nullptr);
    EXPECT_NE(sys.shaper(0), sys.shaper(1));
}

TEST(System, SharedShaperPerApp)
{
    SystemConfig cfg;
    cfg.apps = {"x264"};
    cfg.llc.sizeBytes = 1024 * 1024;
    cfg.gate = GateKind::Mitts;
    cfg.sharedShaperPerApp = true;
    System sys(cfg);
    ASSERT_EQ(sys.numCores(), 4u);
    EXPECT_EQ(sys.shaper(0), sys.shaper(1));
    EXPECT_EQ(sys.shaper(0), sys.shaper(3));
}

TEST(System, ZeroCreditShaperBlocksMemoryTraffic)
{
    SystemConfig cfg = smallSingle("mcf");
    cfg.gate = GateKind::Mitts;
    cfg.useSmoothingFifo = false;
    cfg.mittsConfigs = {BinConfig(cfg.binSpec)}; // zero credits
    System sys(cfg);
    sys.run(20'000);
    EXPECT_EQ(sys.memController().completed(), 0u);
    EXPECT_GT(sys.shaper(0)->stallCycles(), 0u);
}

TEST(System, ShapedRunSlowerThanUnshaped)
{
    SystemConfig open_cfg = smallSingle("mcf");
    System open_sys(open_cfg);
    open_sys.run(50'000);

    SystemConfig tight = smallSingle("mcf");
    tight.gate = GateKind::Mitts;
    BinConfig bc(tight.binSpec);
    bc.credits[9] = 4; // ~4 requests per 10k cycles
    tight.mittsConfigs = {bc};
    System tight_sys(tight);
    tight_sys.run(50'000);

    EXPECT_LT(tight_sys.core(0).instructions(),
              open_sys.core(0).instructions());
}

TEST(System, StaticGateLimitsBandwidth)
{
    SystemConfig cfg = smallSingle("libquantum");
    cfg.gate = GateKind::Static;
    cfg.staticIntervals = {1536.0}; // 0.1 GB/s
    System sys(cfg);
    sys.run(100'000);
    // At most ~65 blocks can pass in 100k cycles at that rate
    // (plus in-flight slack).
    EXPECT_LE(sys.memController().completed(), 80u);
}

TEST(System, RunUntilInstructionsReportsCompletion)
{
    SystemConfig cfg = smallSingle("gcc");
    System sys(cfg);
    auto results = sys.runUntilInstructions(20'000, 10'000'000);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].completed);
    EXPECT_GT(results[0].completedAt, 0u);
    EXPECT_GE(results[0].instructions, 20'000u);
}

TEST(Metrics, SlowdownsAndAggregates)
{
    std::vector<AppResult> shared(2);
    shared[0].completedAt = 200;
    shared[1].completedAt = 300;
    const std::vector<Tick> alone{100, 100};
    const auto m = computeMetrics(shared, alone);
    EXPECT_DOUBLE_EQ(m.slowdowns[0], 2.0);
    EXPECT_DOUBLE_EQ(m.slowdowns[1], 3.0);
    EXPECT_DOUBLE_EQ(m.savg, 2.5);
    EXPECT_DOUBLE_EQ(m.smax, 3.0);
    EXPECT_NEAR(m.weightedSpeedup, 1.0 / 2 + 1.0 / 3, 1e-12);
    // Harmonic mean of the speedups {1/2, 1/3}: 2 / (2 + 3).
    EXPECT_NEAR(m.harmonicSpeedup, 2.0 / 5.0, 1e-12);
}

TEST(Metrics, HarmonicSpeedupIsNormalized)
{
    // N identical apps at slowdown s: harmonic speedup must be 1/s
    // regardless of N (the old weightedSpeedup grows with N).
    for (unsigned n : {1u, 3u, 8u}) {
        std::vector<AppResult> shared(n);
        for (auto &r : shared)
            r.completedAt = 400;
        const std::vector<Tick> alone(n, 100);
        const auto m = computeMetrics(shared, alone);
        EXPECT_NEAR(m.harmonicSpeedup, 0.25, 1e-12);
        EXPECT_NEAR(m.weightedSpeedup, 0.25 * n, 1e-12);
    }
}

TEST(Metrics, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_NEAR(geomean({1.18, 1.18}), 1.18, 1e-12);
}

TEST(Runner, AloneFasterThanShared)
{
    SystemConfig cfg =
        SystemConfig::multiProgram({"mcf", "libquantum", "omnetpp",
                                    "canneal"});
    cfg.seed = 3;
    RunnerOptions opts;
    opts.instrTarget = 15'000;
    opts.maxCycles = 5'000'000;
    const auto alone = aloneCyclesForAll(cfg, opts);
    const auto out = runMulti(cfg, alone, opts);
    // Memory-intensive co-runners must slow each other down.
    EXPECT_GT(out.metrics.savg, 1.05);
    for (double s : out.metrics.slowdowns)
        EXPECT_GE(s, 0.9);
}

TEST(System, StatsDumpMentionsComponents)
{
    System sys(smallSingle("gcc"));
    sys.run(5'000);
    std::ostringstream os;
    sys.dumpStats(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("core.0"), std::string::npos);
    EXPECT_NE(s.find("l1.0"), std::string::npos);
    EXPECT_NE(s.find("llc"), std::string::npos);
    EXPECT_NE(s.find("dram"), std::string::npos);
}


TEST(System, CustomProfilesOverrideRegistry)
{
    AppProfile p;
    p.name = "custom-streamer";
    p.memFraction = 0.3;
    p.hotFraction = 0.2;
    p.warmFraction = 0.0;
    p.midFraction = 0.0;
    p.streamFraction = 0.8;
    p.workingSetBytes = 8 * 1024 * 1024;
    SystemConfig cfg;
    cfg.apps = {"ignored-name"};
    cfg.customProfiles = {p};
    cfg.llc.sizeBytes = 64 * 1024;
    cfg.llc.numBanks = 1;
    System sys(cfg);
    sys.run(30'000);
    // A pure streamer misses constantly.
    EXPECT_GT(sys.llc().misses(), 100u);
}

TEST(System, SmoothingFifoOnlyWithMitts)
{
    SystemConfig plain = SystemConfig::multiProgram({"gcc", "mcf"});
    System a(plain);
    // Without MITTS the MC accepts at most queueDepth entries; with
    // MITTS + FIFO it accepts more. Exercise via canAccept limits.
    SystemConfig shaped = plain;
    shaped.gate = GateKind::Mitts;
    System b(shaped);
    MemRequest probe;
    probe.blockAddr = 0;
    // Both accept when empty; structural check only.
    EXPECT_TRUE(a.memController().canAccept(probe));
    EXPECT_TRUE(b.memController().canAccept(probe));
}

TEST(System, AppMonitorExposesPerCoreState)
{
    SystemConfig cfg = SystemConfig::multiProgram({"gcc", "mcf"});
    System sys(cfg);
    sys.run(20'000);
    const AppMonitor &mon = sys;
    EXPECT_EQ(mon.numCores(), 2u);
    EXPECT_GT(mon.instructions(0), 0u);
    EXPECT_EQ(mon.instructions(0), sys.core(0).instructions());
}

TEST(System, MultithreadedAppExpandsToCores)
{
    SystemConfig cfg;
    cfg.apps = {"x264", "gcc"};
    System sys(cfg);
    EXPECT_EQ(sys.numCores(), 5u); // 4 x264 threads + gcc
    EXPECT_EQ(sys.numApps(), 2u);
    EXPECT_EQ(sys.appOfCore(3), 0u);
    EXPECT_EQ(sys.appOfCore(4), 1u);
    EXPECT_EQ(sys.coresOfApp(0).size(), 4u);
}

TEST(System, SetShaperConfigReconfiguresLive)
{
    SystemConfig cfg = smallSingle("mcf");
    cfg.gate = GateKind::Mitts;
    cfg.useSmoothingFifo = false;
    cfg.mittsConfigs = {BinConfig(cfg.binSpec)}; // zero credits
    System sys(cfg);
    sys.run(10'000);
    EXPECT_EQ(sys.memController().completed(), 0u);
    sys.setShaperConfig(0, BinConfig::uniform(cfg.binSpec, 1024));
    sys.run(20'000);
    EXPECT_GT(sys.memController().completed(), 10u);
}

TEST(System, HybridMethodSelectable)
{
    SystemConfig cfg = smallSingle("gcc");
    cfg.gate = GateKind::Mitts;
    cfg.hybridMethod = HybridMethod::SpeculativeTimestamp;
    System sys(cfg);
    EXPECT_EQ(sys.shaper(0)->method(),
              HybridMethod::SpeculativeTimestamp);
}

// An L1-hit load carries its ready tick in the core's window, so a
// core whose every load hits leaves the event queue empty; only LLC
// fills and DRAM completions are events.
TEST(System, L1HitsQueueNoEvent)
{
    SystemConfig cfg = SystemConfig::singleProgram("gcc");
    cfg.traceFactory = [](CoreId, unsigned, const AppProfile &,
                          Addr base, std::uint64_t, unsigned)
        -> std::unique_ptr<TraceSource> {
        return std::make_unique<ScriptedTrace>(
            std::vector<TraceOp>{{0, false, false, base}});
    };
    System sys(cfg);
    sys.run(2'000); // the first access misses; its fill lands
    ASSERT_TRUE(sys.sim().events().empty());
    const std::uint64_t hits = sys.l1(0).hits();
    const std::uint64_t instr = sys.core(0).instructions();
    for (int i = 0; i < 100; ++i) {
        sys.sim().step();
        ASSERT_TRUE(sys.sim().events().empty()) << "cycle " << i;
    }
    EXPECT_GT(sys.l1(0).hits(), hits);
    EXPECT_GT(sys.core(0).instructions(), instr + 100);
}

} // namespace
} // namespace mitts

/**
 * @file
 * Unit tests for workload profiles and the synthetic trace generator.
 */

#include <gtest/gtest.h>

#include <set>

#include "trace/app_profile.hh"
#include "trace/synth_trace.hh"

namespace mitts
{
namespace
{

TEST(AppProfile, KnownBenchmarksExist)
{
    for (const char *name :
         {"mcf", "libquantum", "omnetpp", "bzip", "gcc", "astar",
          "gobmk", "sjeng", "h264ref", "hmmer", "apache", "bhm",
          "x264", "ferret", "blackscholes", "canneal",
          "streamcluster", "fluidanimate", "lib"}) {
        const AppProfile &p = appProfile(name);
        EXPECT_EQ(p.name, name);
        EXPECT_GT(p.memFraction, 0.0);
        EXPECT_LE(p.memFraction, 1.0);
        EXPECT_GE(p.workingSetBytes, p.hotSetBytes);
    }
}

TEST(AppProfile, IntensityOrdering)
{
    // The cornerstone of the paper's results: mcf/libquantum/omnetpp
    // are memory intensive, sjeng/gobmk are not.
    EXPECT_GT(appProfile("mcf").memFraction *
                  (1 - appProfile("mcf").hotFraction),
              appProfile("sjeng").memFraction *
                  (1 - appProfile("sjeng").hotFraction));
    EXPECT_GT(appProfile("libquantum").workingSetBytes,
              appProfile("gobmk").workingSetBytes);
}

TEST(AppProfile, BurstyAppsAreBursty)
{
    EXPECT_GT(appProfile("mcf").burstEnterProb, 0.0);
    EXPECT_GT(appProfile("apache").idleFraction, 0.0);
    EXPECT_EQ(appProfile("libquantum").burstEnterProb, 0.0);
}

TEST(AppProfile, ThreadedProfiles)
{
    EXPECT_EQ(appProfile("x264").numThreads, 4u);
    EXPECT_EQ(appProfile("ferret").numThreads, 4u);
    EXPECT_EQ(appProfile("mcf").numThreads, 1u);
}

TEST(AppProfile, WorkloadsMatchTable3)
{
    EXPECT_EQ(workloadApps(1),
              (std::vector<std::string>{"gcc", "libquantum", "bzip",
                                        "mcf"}));
    EXPECT_EQ(workloadApps(4).size(), 8u);
    EXPECT_EQ(workloadApps(6).front(), "apache");
}

TEST(SynthTrace, Deterministic)
{
    const AppProfile &p = appProfile("gcc");
    SyntheticTrace a(p, 0, 42), b(p, 0, 42);
    for (int i = 0; i < 2000; ++i) {
        const TraceOp x = a.next();
        const TraceOp y = b.next();
        EXPECT_EQ(x.gap, y.gap);
        EXPECT_EQ(x.addr, y.addr);
        EXPECT_EQ(x.isWrite, y.isWrite);
    }
}

TEST(SynthTrace, ResetReplays)
{
    // 2,499 ops ends mid-block for every stream that spends several
    // ops per block (libquantum spends four), so reset() must restart
    // the block cursor along with the RNG.
    for (const std::string &name : allProfileNames()) {
        const AppProfile &p = appProfile(name);
        SyntheticTrace fresh(p, 0, 7);
        SyntheticTrace t(p, 0, 7);
        for (int i = 0; i < 2'499; ++i)
            t.next();
        t.reset();
        for (int i = 0; i < 2'000; ++i) {
            const TraceOp want = fresh.next();
            const TraceOp got = t.next();
            ASSERT_EQ(got.addr, want.addr) << name << " op " << i;
            ASSERT_EQ(got.gap, want.gap) << name << " op " << i;
            ASSERT_EQ(got.isWrite, want.isWrite) << name << " op " << i;
            ASSERT_EQ(got.dependsOnPrev, want.dependsOnPrev)
                << name << " op " << i;
        }
    }
}

TEST(SynthTrace, AddressesWithinWorkingSet)
{
    const AppProfile &p = appProfile("bzip");
    const Addr base = 1ULL << 30;
    SyntheticTrace t(p, base, 3);
    for (int i = 0; i < 5000; ++i) {
        const Addr a = t.next().addr;
        EXPECT_GE(a, base);
        EXPECT_LT(a, base + p.workingSetBytes);
    }
}

TEST(SynthTrace, MemIntensityScalesWithProfile)
{
    auto mean_gap = [](const std::string &name) {
        SyntheticTrace t(appProfile(name), 0, 5);
        double total = 0;
        for (int i = 0; i < 20000; ++i)
            total += t.next().gap;
        return total / 20000;
    };
    // sjeng is CPU bound: much larger gaps than mcf.
    EXPECT_GT(mean_gap("sjeng"), mean_gap("mcf"));
}

TEST(SynthTrace, StreamingProfileIsSequential)
{
    // Stream-following = same block (word-granularity stream) or the
    // next block.
    auto stream_pairs = [](const std::string &name) {
        SyntheticTrace t(appProfile(name), 0, 9);
        int n = 0;
        Addr prev = kAddrInvalid;
        for (int i = 0; i < 20000; ++i) {
            const Addr a = t.next().addr;
            if (i > 0 && (a == prev || a == prev + kBlockBytes))
                ++n;
            prev = a;
        }
        return n;
    };
    // streamcluster should show far more stream-following pairs than
    // a pointer chaser (canneal's warm tier also produces short
    // sequential runs, so the margin is 2x, not an order of
    // magnitude).
    EXPECT_GT(stream_pairs("streamcluster"),
              2 * stream_pairs("canneal"));
}

TEST(SynthTrace, ServerProfilesHaveIdleGaps)
{
    SyntheticTrace t(appProfile("apache"), 0, 13);
    std::uint32_t max_gap = 0;
    for (int i = 0; i < 50000; ++i)
        max_gap = std::max(max_gap, t.next().gap);
    EXPECT_GE(max_gap, appProfile("apache").idleGapInstrs);
}

TEST(SynthTrace, ThreadsDiffer)
{
    const AppProfile &p = appProfile("x264");
    SyntheticTrace t0(p, 0, 11, 0), t1(p, 0, 12, 1);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += t0.next().addr == t1.next().addr;
    EXPECT_LT(same, 100);
}

TEST(ScriptedTrace, LoopsAndResets)
{
    ScriptedTrace t({{1, false, false, 0x40}, {2, true, false, 0x80}});
    EXPECT_EQ(t.next().addr, 0x40u);
    EXPECT_EQ(t.next().addr, 0x80u);
    EXPECT_EQ(t.next().addr, 0x40u); // loops
    t.reset();
    EXPECT_EQ(t.next().addr, 0x40u);
}

TEST(AppProfile, AllProfileNamesNonEmpty)
{
    const auto names = allProfileNames();
    EXPECT_GE(names.size(), 18u);
    std::set<std::string> uniq(names.begin(), names.end());
    EXPECT_EQ(uniq.size(), names.size());
}

TEST(AppProfileDeath, UnknownNameIsFatal)
{
    EXPECT_EXIT(appProfile("no-such-benchmark"),
                ::testing::ExitedWithCode(1), "unknown application");
}

TEST(AppProfileDeath, BadWorkloadIdIsFatal)
{
    EXPECT_EXIT(workloadApps(7), ::testing::ExitedWithCode(1),
                "workload id");
}

} // namespace
} // namespace mitts

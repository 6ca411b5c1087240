/**
 * @file
 * Property-based tests: invariants that must hold across randomly
 * generated configurations and workloads (parameterized sweeps).
 */

#include <gtest/gtest.h>

#include <numeric>

#include "base/random.hh"
#include "system/metrics.hh"
#include "system/system.hh"
#include "shaper/mitts_shaper.hh"
#include "tuner/constraints.hh"

namespace mitts
{
namespace
{

/**
 * Property: under any bin configuration and any request pattern, the
 * number of requests the shaper admits per replenishment period never
 * exceeds the total credits (method 2, no LLC hits).
 */
class ShaperBudgetProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(ShaperBudgetProperty, NeverExceedsCreditsPerPeriod)
{
    Random rng(GetParam());
    BinSpec spec;
    spec.numBins = 10;
    spec.intervalLength = 10;
    spec.replenishPeriod = 500 + rng.below(2000);

    BinConfig cfg(spec);
    for (auto &k : cfg.credits)
        k = static_cast<std::uint32_t>(rng.below(20));
    const std::uint64_t budget = cfg.totalCredits();

    MittsShaper shaper("p", cfg, HybridMethod::ConservativeRefund);

    Tick now = 0;
    SeqNum seq = 1;
    std::uint64_t admitted_this_period = 0;
    Tick period_start = 0;
    for (int step = 0; step < 5000; ++step) {
        now += rng.below(8); // random, mostly aggressive spacing
        if ((now - period_start) >= spec.replenishPeriod) {
            admitted_this_period = 0;
            period_start +=
                ((now - period_start) / spec.replenishPeriod) *
                spec.replenishPeriod;
        }
        MemRequest r;
        r.seq = seq;
        r.core = 0;
        if (shaper.tryIssue(r, now)) {
            ++seq;
            ++admitted_this_period;
            // All requests miss the LLC: no refunds.
            shaper.onLlcResponse(r, false, now + 5);
        }
        ASSERT_LE(admitted_this_period, budget)
            << "shaper over-admitted at tick " << now;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShaperBudgetProperty,
                         ::testing::Range(1, 13));

/**
 * Property: shaped inter-arrival times never violate the fastest
 * granted bin: a request admitted with spacing t consumed a credit
 * from a bin whose interval covers <= t.
 */
class ShaperSpacingProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(ShaperSpacingProperty, NeverAdmitsFasterThanCredits)
{
    Random rng(GetParam() * 77 + 1);
    BinSpec spec;
    spec.replenishPeriod = 1000;

    // Only slow credits: nothing below bin `low`.
    const unsigned low = 4 + GetParam() % 5;
    BinConfig cfg(spec);
    for (unsigned i = low; i < spec.numBins; ++i)
        cfg.credits[i] = 2;

    MittsShaper shaper("p", cfg);
    Tick now = 0;
    Tick last_admit = 0;
    bool first = true;
    for (int step = 0; step < 3000; ++step) {
        now += 1 + rng.below(4);
        MemRequest r;
        r.seq = static_cast<SeqNum>(step);
        r.core = 0;
        if (shaper.tryIssue(r, now)) {
            if (!first) {
                // Spacing must cover the lowest provisioned bin.
                ASSERT_GE(now - last_admit,
                          static_cast<Tick>(low) *
                              spec.intervalLength);
            }
            first = false;
            last_admit = now;
            shaper.onLlcResponse(r, false, now + 3);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShaperSpacingProperty,
                         ::testing::Range(0, 10));

/**
 * Property: budget projection always lands exactly on the budget and
 * never exceeds register widths, for arbitrary genomes.
 */
class ProjectionProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(ProjectionProperty, BudgetExactAndClamped)
{
    Random rng(GetParam() * 1337 + 11);
    BinSpec spec;
    spec.maxCredits = 64 + static_cast<std::uint32_t>(rng.below(960));

    Genome g(spec.numBins);
    for (auto &v : g)
        v = static_cast<std::uint32_t>(rng.below(2048));
    const std::uint64_t budget =
        1 + rng.below(spec.numBins * spec.maxCredits);

    projectToBudget(g, spec, budget);
    EXPECT_EQ(std::accumulate(g.begin(), g.end(), std::uint64_t{0}),
              budget);
    for (auto v : g)
        EXPECT_LE(v, spec.maxCredits);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProjectionProperty,
                         ::testing::Range(0, 20));

/**
 * Property: BinConfig bandwidth/interval math is self-consistent:
 * creditsForBandwidth(avgBandwidthGBps(cfg)) recovers the total.
 */
class BandwidthRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(BandwidthRoundTrip, CreditsMatchBandwidth)
{
    Random rng(GetParam() + 999);
    BinSpec spec;
    spec.replenishPeriod = 1000 + rng.below(20000);
    BinConfig cfg(spec);
    for (auto &k : cfg.credits)
        k = static_cast<std::uint32_t>(rng.below(100));
    if (cfg.totalCredits() == 0)
        cfg.credits[0] = 1;

    const double gbps = cfg.avgBandwidthGBps(2.4);
    const auto back =
        BinConfig::creditsForBandwidth(spec, gbps, 2.4);
    EXPECT_NEAR(static_cast<double>(back),
                static_cast<double>(cfg.totalCredits()), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BandwidthRoundTrip,
                         ::testing::Range(0, 15));


/**
 * Property: a full system run is bit-deterministic for every
 * scheduler: same config + seed => identical instruction counts and
 * memory traffic.
 */
class DeterminismProperty
    : public ::testing::TestWithParam<SchedulerKind>
{
};

TEST_P(DeterminismProperty, IdenticalRunsAcrossInstances)
{
    auto fingerprint = [&] {
        SystemConfig cfg = SystemConfig::multiProgram(
            {"gcc", "mcf", "libquantum", "sjeng"});
        cfg.sched = GetParam();
        cfg.seed = 2024;
        cfg.tcm.quantum = 10'000;
        cfg.mise.intervalLength = 20'000;
        System sys(cfg);
        sys.run(40'000);
        std::uint64_t fp = sys.memController().completed();
        for (CoreId c = 0; c < 4; ++c)
            fp = fp * 1000003 + sys.core(c).instructions();
        return fp;
    };
    EXPECT_EQ(fingerprint(), fingerprint());
}

INSTANTIATE_TEST_SUITE_P(
    Schedulers, DeterminismProperty,
    ::testing::ValuesIn(allSchedulers()));

/**
 * Property: adding credits to any bin never slows a single-program
 * run down (shaping monotonicity).
 */
class MonotonicityProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(MonotonicityProperty, MoreCreditsNeverSlower)
{
    Random rng(GetParam() * 31 + 7);
    BinSpec spec;
    BinConfig base_cfg(spec);
    for (auto &k : base_cfg.credits)
        k = static_cast<std::uint32_t>(rng.below(12));
    if (base_cfg.totalCredits() == 0)
        base_cfg.credits[5] = 4;

    BinConfig bigger = base_cfg;
    const unsigned bin = static_cast<unsigned>(rng.below(10));
    bigger.credits[bin] += 8 + static_cast<std::uint32_t>(
                               rng.below(16));

    auto cycles_with = [&](const BinConfig &bc) {
        SystemConfig cfg = SystemConfig::singleProgram("gcc");
        cfg.gate = GateKind::Mitts;
        cfg.mittsConfigs = {bc};
        cfg.seed = 99;
        System sys(cfg);
        auto res = sys.runUntilInstructions(30'000, 30'000'000);
        return res[0].completedAt;
    };
    // Allow a whisker of slack: extra credits can shift DRAM row
    // interleavings, but must never cause a real slowdown.
    EXPECT_LE(cycles_with(bigger),
              cycles_with(base_cfg) * 102 / 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonotonicityProperty,
                         ::testing::Range(0, 6));

/**
 * Property: computeMetrics invariants hold for arbitrary inputs:
 * S_max >= S_avg >= min slowdown, and weighted speedup <= N.
 */
class MetricsProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(MetricsProperty, AggregateBounds)
{
    Random rng(GetParam() * 17 + 3);
    const unsigned n = 2 + static_cast<unsigned>(rng.below(7));
    std::vector<AppResult> shared(n);
    std::vector<Tick> alone(n);
    for (unsigned i = 0; i < n; ++i) {
        alone[i] = 1000 + rng.below(100000);
        shared[i].completedAt =
            alone[i] + rng.below(4 * alone[i]);
    }
    const auto m = computeMetrics(shared, alone);
    EXPECT_GE(m.smax + 1e-12, m.savg);
    double min_s = m.slowdowns[0];
    for (double v : m.slowdowns)
        min_s = std::min(min_s, v);
    EXPECT_LE(min_s, m.savg + 1e-12);
    EXPECT_LE(m.weightedSpeedup,
              static_cast<double>(n) + 1e-12);
    EXPECT_GE(geomean(m.slowdowns), 1.0 - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsProperty,
                         ::testing::Range(0, 12));


/**
 * Property: the Rolling replenishment policy also respects the
 * per-period admission budget in steady state (accrual rate is
 * K_i / T_r, so any window of length T_r admits at most the total
 * credits plus the initial allotment).
 */
class RollingBudgetProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(RollingBudgetProperty, SteadyStateRateBounded)
{
    Random rng(GetParam() * 53 + 29);
    BinSpec spec;
    spec.policy = ReplenishPolicy::Rolling;
    spec.replenishPeriod = 1'000 + rng.below(3'000);

    BinConfig cfg(spec);
    for (auto &k : cfg.credits)
        k = static_cast<std::uint32_t>(rng.below(12));
    const std::uint64_t budget = cfg.totalCredits();
    if (budget == 0)
        return;

    MittsShaper shaper("p", cfg);
    Tick now = 0;
    SeqNum seq = 1;
    std::uint64_t admitted = 0;
    const Tick horizon = 20 * spec.replenishPeriod;
    while (now < horizon) {
        now += 1 + rng.below(6);
        MemRequest r;
        r.seq = seq;
        r.core = 0;
        if (shaper.tryIssue(r, now)) {
            ++seq;
            ++admitted;
            shaper.onLlcResponse(r, false, now + 3);
        }
    }
    // 20 periods of accrual plus the initial allotment.
    EXPECT_LE(admitted, 21 * budget);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RollingBudgetProperty,
                         ::testing::Range(0, 8));

} // namespace
} // namespace mitts

/**
 * @file
 * Unit tests for the MITTS shaper: bin geometry, credit consumption,
 * replenishment Algorithm 1, method 1 vs method 2 reconciliation,
 * the static-rate gate, and the exact wake claims (nextIssueTick) of
 * every token-based gate.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "base/random.hh"
#include "base/token_bucket.hh"
#include "ckpt/serialize.hh"
#include "sched/fst.hh"
#include "shaper/bin_config.hh"
#include "shaper/mitts_shaper.hh"
#include "shaper/static_gate.hh"

namespace mitts
{
namespace
{

BinSpec
spec10()
{
    BinSpec s;
    s.numBins = 10;
    s.intervalLength = 10;
    s.replenishPeriod = 1000;
    s.maxCredits = 1024;
    return s;
}

MemRequest
req(SeqNum seq, CoreId core = 0)
{
    MemRequest r;
    r.seq = seq;
    r.core = core;
    r.blockAddr = seq * 64;
    return r;
}

TEST(BinSpec, BinTimeIsCentre)
{
    const BinSpec s = spec10();
    EXPECT_EQ(s.binTime(0), 5u);
    EXPECT_EQ(s.binTime(9), 95u);
}

TEST(BinSpec, BinOfClampsToLast)
{
    const BinSpec s = spec10();
    EXPECT_EQ(s.binOf(0), 0u);
    EXPECT_EQ(s.binOf(9), 0u);
    EXPECT_EQ(s.binOf(10), 1u);
    EXPECT_EQ(s.binOf(95), 9u);
    EXPECT_EQ(s.binOf(100000), 9u);
}

TEST(BinSpec, PaperReplenishPeriodFormula)
{
    const BinSpec s = spec10();
    // sum t_i = 5+15+...+95 = 500.
    EXPECT_EQ(s.paperReplenishPeriod(1024), 1024u * 500u);
}

TEST(BinConfig, AverageMath)
{
    BinConfig c(spec10());
    c.credits[0] = 10; // t=5
    c.credits[9] = 10; // t=95
    EXPECT_DOUBLE_EQ(c.avgInterval(), 50.0);
    EXPECT_EQ(c.totalCredits(), 20u);
    EXPECT_DOUBLE_EQ(c.avgBandwidthBlocksPerCycle(), 20.0 / 1000.0);
    // 0.02 blocks/cycle * 64B * 2.4GHz = 3.072 GB/s
    EXPECT_NEAR(c.avgBandwidthGBps(2.4), 3.072, 1e-9);
}

TEST(BinConfig, CreditsForBandwidthRoundTrip)
{
    const BinSpec s = spec10();
    const auto credits = BinConfig::creditsForBandwidth(s, 1.0, 2.4);
    // 1 GB/s => one block per 153.6 cycles => ~6.5 credits / 1000cyc.
    EXPECT_GE(credits, 6u);
    EXPECT_LE(credits, 7u);
}

TEST(BinConfig, ClampRespectsRegisterWidth)
{
    BinSpec s = spec10();
    s.maxCredits = 100;
    BinConfig c(s);
    c.credits[3] = 5000;
    c.clamp();
    EXPECT_EQ(c.credits[3], 100u);
}

TEST(MittsShaper, ConsumesFromMatchingBin)
{
    BinConfig cfg(spec10());
    cfg.credits[2] = 1; // t in [20,30)
    MittsShaper shaper("s", cfg);

    auto r1 = req(1);
    // First request is treated as maximally spaced -> eligible.
    EXPECT_TRUE(shaper.tryIssue(r1, 100));
    EXPECT_EQ(shaper.credits(2), 0u);

    auto r2 = req(2);
    EXPECT_FALSE(shaper.tryIssue(r2, 125)); // no credits anywhere
}

TEST(MittsShaper, FastRequestNeedsLowBin)
{
    BinConfig cfg(spec10());
    cfg.credits[9] = 5; // only slow credits
    MittsShaper shaper("s", cfg);

    auto r1 = req(1);
    EXPECT_TRUE(shaper.tryIssue(r1, 0)); // first request
    auto r2 = req(2);
    // 10 cycles later: bin 1, but only bin 9 has credits -> stall.
    EXPECT_FALSE(shaper.tryIssue(r2, 10));
    // After waiting to >= 90 cycles spacing, bin 9 is eligible.
    EXPECT_TRUE(shaper.tryIssue(r2, 95));
}

TEST(MittsShaper, ConsumesLargestEligibleBin)
{
    BinConfig cfg(spec10());
    cfg.credits[0] = 1;
    cfg.credits[3] = 1;
    MittsShaper shaper("s", cfg);

    auto r1 = req(1);
    shaper.tryIssue(r1, 0);        // first: takes bin 3 (largest <= 9)
    EXPECT_EQ(shaper.credits(3), 0u);
    EXPECT_EQ(shaper.credits(0), 1u);

    auto r2 = req(2);
    EXPECT_TRUE(shaper.tryIssue(r2, 3)); // 3-cycle spacing: bin 0
    EXPECT_EQ(shaper.credits(0), 0u);
}

TEST(MittsShaper, ReplenishRestoresCredits)
{
    BinConfig cfg(spec10());
    cfg.credits[9] = 1;
    MittsShaper shaper("s", cfg);

    auto r1 = req(1);
    EXPECT_TRUE(shaper.tryIssue(r1, 0));
    auto r2 = req(2);
    EXPECT_FALSE(shaper.tryIssue(r2, 500));
    // After T_r = 1000 all bins reset to K_i.
    EXPECT_TRUE(shaper.tryIssue(r2, 1001));
    EXPECT_GE(shaper.issued(), 2u);
}

TEST(MittsShaper, LazyReplenishCatchesUp)
{
    BinConfig cfg(spec10());
    cfg.credits[9] = 1;
    MittsShaper shaper("s", cfg);
    auto r = req(1);
    // Far in the future, several periods elapsed while idle.
    EXPECT_TRUE(shaper.tryIssue(r, 10'500));
    auto r2 = req(2);
    EXPECT_FALSE(shaper.tryIssue(r2, 10'600));
    EXPECT_TRUE(shaper.tryIssue(r2, 11'001));
}

TEST(MittsShaper, Method2RefundsOnLlcHit)
{
    BinConfig cfg(spec10());
    cfg.credits[9] = 1;
    MittsShaper shaper("s", cfg, HybridMethod::ConservativeRefund);

    auto r1 = req(1);
    EXPECT_TRUE(shaper.tryIssue(r1, 0));
    EXPECT_EQ(shaper.credits(9), 0u);
    shaper.onLlcResponse(r1, true, 20); // LLC hit: refund
    EXPECT_EQ(shaper.credits(9), 1u);
    EXPECT_EQ(shaper.refunds(), 1u);
}

TEST(MittsShaper, Method2KeepsDeductionOnMiss)
{
    BinConfig cfg(spec10());
    cfg.credits[9] = 1;
    MittsShaper shaper("s", cfg, HybridMethod::ConservativeRefund);

    auto r1 = req(1);
    shaper.tryIssue(r1, 0);
    shaper.onLlcResponse(r1, false, 20); // LLC miss
    EXPECT_EQ(shaper.credits(9), 0u);
    EXPECT_EQ(shaper.refunds(), 0u);
}

TEST(MittsShaper, Method1DeductsOnMissConfirmation)
{
    BinConfig cfg(spec10());
    cfg.credits[9] = 2;
    MittsShaper shaper("s", cfg, HybridMethod::SpeculativeTimestamp);

    auto r1 = req(1);
    EXPECT_TRUE(shaper.tryIssue(r1, 0));
    EXPECT_EQ(shaper.credits(9), 2u); // not deducted yet
    shaper.onLlcResponse(r1, false, 30);
    EXPECT_EQ(shaper.credits(9), 1u);

    auto r2 = req(2);
    EXPECT_TRUE(shaper.tryIssue(r2, 100));
    shaper.onLlcResponse(r2, true, 120); // hit: no deduction
    EXPECT_EQ(shaper.credits(9), 1u);
}

TEST(MittsShaper, Method1IsAggressive)
{
    // With one credit and two in-flight requests, method 1 lets both
    // through before the miss confirmations arrive.
    BinConfig cfg(spec10());
    cfg.credits[9] = 1;
    MittsShaper shaper("s", cfg, HybridMethod::SpeculativeTimestamp);

    auto r1 = req(1), r2 = req(2);
    EXPECT_TRUE(shaper.tryIssue(r1, 0));
    EXPECT_TRUE(shaper.tryIssue(r2, 100));
    shaper.onLlcResponse(r1, false, 150);
    shaper.onLlcResponse(r2, false, 160);
    EXPECT_EQ(shaper.credits(9), 0u);
    EXPECT_EQ(shaper.statsGroup().name(), "s");
}

TEST(MittsShaper, DisabledPassesEverything)
{
    BinConfig cfg(spec10()); // zero credits
    MittsShaper shaper("s", cfg);
    shaper.setEnabled(false);
    auto r = req(1);
    for (Tick t = 0; t < 10; ++t)
        EXPECT_TRUE(shaper.tryIssue(r, t));
}

TEST(MittsShaper, SetConfigTakesEffect)
{
    BinConfig cfg(spec10());
    MittsShaper shaper("s", cfg);
    auto r = req(1);
    EXPECT_FALSE(shaper.tryIssue(r, 0));

    BinConfig better(spec10());
    better.credits[9] = 4;
    shaper.setConfig(better);
    EXPECT_TRUE(shaper.tryIssue(r, 1));
}

TEST(MittsShaper, SetConfigShrinkingTrTakesEffectImmediately)
{
    // Start on a long replenish period, then reconfigure mid-run to
    // a much shorter one. The shaper must replenish on the *new*
    // schedule right away, not starve until the stale deadline from
    // the old period passes.
    BinSpec slow = spec10();
    slow.replenishPeriod = 10'000;
    BinConfig cfg(slow);
    cfg.credits[9] = 1;
    MittsShaper shaper("s", cfg);

    BinSpec fast = slow;
    fast.replenishPeriod = 100;
    BinConfig shrunk(fast);
    shrunk.credits[9] = 1;
    shaper.setConfig(shrunk, 500);

    // Consume the single credit...
    auto r1 = req(1);
    EXPECT_TRUE(shaper.tryIssue(r1, 600));
    EXPECT_EQ(shaper.credits(9), 0u);
    // ...too soon for another one (and bin 4 is empty anyway)...
    auto r2 = req(2);
    EXPECT_FALSE(shaper.tryIssue(r2, 650));
    // ...but one new-period boundary later the bin refills. Before
    // the fix nextReplenishAt_ stayed at the stale 10'000 deadline
    // and this issue starved.
    auto r3 = req(3);
    EXPECT_TRUE(shaper.tryIssue(r3, 710));
}

TEST(MittsShaper, DeductForMissFallbackTakesNearestBinAbove)
{
    // Method 1 deducts on confirmed LLC misses using miss-to-miss
    // spacing. When the observed bin and everything below it are
    // empty (the gate issued aggressively on stale counters), the
    // deduction must charge the *nearest* non-empty bin above the
    // spacing, not the farthest.
    BinConfig cfg(spec10());
    cfg.credits[2] = 1;
    cfg.credits[5] = 3;
    cfg.credits[9] = 3;
    MittsShaper shaper("s", cfg, HybridMethod::SpeculativeTimestamp);

    auto r1 = req(1), r2 = req(2), r3 = req(3);
    EXPECT_TRUE(shaper.tryIssue(r1, 0));   // first: bin 9
    EXPECT_TRUE(shaper.tryIssue(r2, 25));  // spacing 25: bin 2
    EXPECT_TRUE(shaper.tryIssue(r3, 50));  // stale counters: bin 2

    shaper.onLlcResponse(r1, false, 200); // deducts bin 9
    shaper.onLlcResponse(r2, false, 210); // deducts bin 2 (last one)
    // Spacing 25 again, bins 0-2 empty: nearest bin above is 5.
    shaper.onLlcResponse(r3, false, 220);
    EXPECT_EQ(shaper.credits(2), 0u);
    EXPECT_EQ(shaper.credits(5), 2u); // was 3: charged here
    EXPECT_EQ(shaper.credits(9), 2u); // only r1's deduction
}

TEST(MittsShaper, SharedAcrossCoresKeysDistinctly)
{
    BinConfig cfg(spec10());
    cfg.credits[9] = 4;
    MittsShaper shaper("s", cfg);
    auto ra = req(1, 0);
    auto rb = req(1, 1); // same seq, different core
    EXPECT_TRUE(shaper.tryIssue(ra, 0));
    EXPECT_TRUE(shaper.tryIssue(rb, 200));
    EXPECT_EQ(shaper.credits(9), 2u);
    shaper.onLlcResponse(ra, true, 210);
    shaper.onLlcResponse(rb, true, 215);
    EXPECT_EQ(shaper.credits(9), 4u);
}

TEST(MittsShaper, HardwareStateIsTiny)
{
    BinConfig cfg(spec10());
    MittsShaper m2("m2", cfg, HybridMethod::ConservativeRefund);
    MittsShaper m1("m1", cfg, HybridMethod::SpeculativeTimestamp);
    EXPECT_LT(m2.hardwareStateBytes(), 128u);
    EXPECT_LE(m2.hardwareStateBytes(), m1.hardwareStateBytes());
}

TEST(StaticGate, EnforcesRate)
{
    StaticRateGate gate("g", 100.0, 1.0);
    MemRequest r = req(1);
    EXPECT_TRUE(gate.tryIssue(r, 0));
    EXPECT_FALSE(gate.tryIssue(r, 50));
    EXPECT_TRUE(gate.tryIssue(r, 100));
    EXPECT_FALSE(gate.tryIssue(r, 150));
}

TEST(StaticGate, BandwidthConversion)
{
    StaticRateGate gate("g", 153.6, 1.0);
    EXPECT_NEAR(gate.bandwidthGBps(2.4), 1.0, 1e-9);
}

TEST(StaticGate, BucketDepthAllowsSmallBurst)
{
    StaticRateGate gate("g", 100.0, 2.0);
    MemRequest r = req(1);
    EXPECT_TRUE(gate.tryIssue(r, 0));
    EXPECT_TRUE(gate.tryIssue(r, 0)); // second token from the bucket
    EXPECT_FALSE(gate.tryIssue(r, 0));
}

// --- exact wake claims ----------------------------------------------------
//
// The skip-ahead kernel trusts SourceGate::nextIssueTick(now): it must
// be exactly the first cycle after `now` at which the reference
// kernel's per-cycle tryIssue retries succeed. Each case drives a gate
// through a seeded random history of tryIssue calls, then compares
// the claim with a per-cycle retry loop on a replica that saw the
// same history.

using GateFactory = std::function<std::unique_ptr<SourceGate>()>;

/** Call tryIssue at every tick of `history`; an admitted request gets
 *  its LLC response on the spot (every third one a hit). */
void
replay(SourceGate &gate, const std::vector<Tick> &history)
{
    SeqNum seq = 1;
    for (Tick t : history) {
        MemRequest r = req(seq);
        if (gate.tryIssue(r, t)) {
            gate.onLlcResponse(r, seq % 3 == 0, t);
            ++seq;
        }
    }
}

void
expectExactClaims(const GateFactory &make, std::uint64_t seed,
                  Tick max_gap)
{
    Random rng(seed);
    std::vector<Tick> history;
    Tick now = 0;
    for (int step = 0; step < 150; ++step) {
        now += rng.below(max_gap);
        history.push_back(now);
        auto gate = make();
        replay(*gate, history);
        const Tick claim = gate->nextIssueTick(now);

        auto replica = make();
        replay(*replica, history);
        Tick first = kTickNever;
        MemRequest r = req(1'000'000);
        for (Tick t = now + 1; t <= now + 1'000'000; ++t) {
            if (replica->tryIssue(r, t)) {
                first = t;
                break;
            }
        }
        ASSERT_EQ(claim, first) << "seed " << seed << " step " << step;
    }
}

TEST(ExactClaims, StaticGate)
{
    for (double interval : {100.0, 76.8, 153.6, 4999.7}) {
        for (double depth : {1.0, 2.0}) {
            SCOPED_TRACE(::testing::Message()
                         << "interval " << interval << " depth "
                         << depth);
            expectExactClaims(
                [=] {
                    return std::make_unique<StaticRateGate>(
                        "g", interval, depth);
                },
                17, static_cast<Tick>(interval * 1.5));
        }
    }
}

TEST(ExactClaims, FstGateAtEveryThrottleLevel)
{
    // Walk core 1 down the throttle ladder the way FST does: core 0
    // is served far below its alone rate, core 1 cruises.
    FstConfig cfg;
    cfg.interval = 400;
    cfg.epochLength = 100;
    cfg.unfairnessThresh = 1.2;
    FstScheduler sched(2, cfg);
    std::vector<double> seen;
    for (Tick t = 1; t <= 20'000 && seen.size() < 8; ++t) {
        if (t % 100 == 0) {
            const bool measuring_c0 = sched.boostedCore() == 0;
            for (int i = 0; i < (measuring_c0 ? 30 : 2); ++i)
                sched.onComplete(req(1, 0), t);
            for (int i = 0; i < 10; ++i)
                sched.onComplete(req(1, 1), t);
        }
        sched.tick(t);
        const double level = sched.throttleLevel(1);
        if (seen.empty() || seen.back() != level) {
            seen.push_back(level);
            SCOPED_TRACE(::testing::Message() << "level " << level);
            expectExactClaims(
                [&] { return std::make_unique<FstGate>(sched, 1); },
                seen.size(),
                static_cast<Tick>(1.5 / (level * cfg.maxRate)));
        }
    }
    EXPECT_EQ(seen.size(), 8u);
    EXPECT_DOUBLE_EQ(seen.back(), 0.02);
}

BinConfig
rollingConfig(std::uint64_t seed)
{
    BinSpec s = spec10();
    s.policy = ReplenishPolicy::Rolling;
    Random rng(seed);
    BinConfig cfg(s);
    for (auto &k : cfg.credits)
        k = static_cast<std::uint32_t>(rng.below(4));
    cfg.credits[rng.below(s.numBins)] += 1; // at least one credit
    return cfg;
}

TEST(ExactClaims, RollingShaper)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const BinConfig cfg = rollingConfig(seed);
        SCOPED_TRACE(cfg.toString());
        expectExactClaims(
            [&] { return std::make_unique<MittsShaper>("s", cfg); },
            seed, 120);
    }
}

template <typename T>
std::string
stateOf(const T &x)
{
    ckpt::Writer w;
    w.beginSection("s");
    x.saveState(w);
    w.endSection();
    return w.finish(0);
}

TEST(ExactRefill, TokenBucketSplitGapMatchesOneRefill)
{
    Random rng(99);
    for (int i = 0; i < 10'000; ++i) {
        const std::uint64_t rate = 1 + rng.below(1ULL << 33);
        const std::uint64_t cap = rng.below(1ULL << 40);
        TokenBucket one;
        one.level = rng.below(cap + 1);
        one.last = rng.below(1'000);
        // Gaps up to 2^40 cycles exercise the saturating path.
        const Tick mid = one.last + rng.below(1ULL << (rng.below(41)));
        const Tick end = mid + rng.below(1ULL << (rng.below(41)));
        TokenBucket two = one;
        one.refill(end, rate, cap);
        two.refill(mid, rate, cap);
        two.refill(end, rate, cap);
        ASSERT_EQ(one.level, two.level) << i;
        ASSERT_EQ(one.last, two.last) << i;
        ASSERT_LE(one.level, cap) << i;
    }
    // rate * gap = 2^64 + 2^33 saturates instead of wrapping to 2^33.
    TokenBucket b;
    b.refill((Tick{1} << 31) + 1, Tick{1} << 33, Tick{1} << 40);
    EXPECT_EQ(b.level, Tick{1} << 40);
}

TEST(ExactRefill, RollingSplitGapMatchesOneRefill)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const BinConfig cfg = rollingConfig(seed);
        MittsShaper one("s", cfg), two("s", cfg);
        // Drain both alike so credits sit below their caps with
        // nonzero remainders.
        std::vector<Tick> history;
        for (Tick t = 3; t < 400; t += 7)
            history.push_back(t);
        replay(one, history);
        replay(two, history);
        Random rng(seed);
        const Tick mid = 400 + rng.below(3'000);
        const Tick end = mid + rng.below(3'000);
        one.replenishIfDue(end);
        two.replenishIfDue(mid);
        two.replenishIfDue(end);
        EXPECT_EQ(stateOf(one), stateOf(two)) << cfg.toString();
    }
}

} // namespace
} // namespace mitts

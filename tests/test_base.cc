/**
 * @file
 * Unit tests for src/base: RNG determinism, bit utilities, stats.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "base/bitutil.hh"
#include "base/kv_text.hh"
#include "base/random.hh"
#include "base/stats.hh"

namespace mitts
{
namespace
{

TEST(Random, DeterministicAcrossInstances)
{
    Random a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, StateRoundTripContinuesStream)
{
    Random a(7);
    for (int i = 0; i < 100; ++i)
        a.next();
    const Random::State snap = a.state();
    std::vector<std::uint64_t> expected;
    for (int i = 0; i < 100; ++i)
        expected.push_back(a.next());

    Random b(999); // different seed; state overwrite must win
    b.setState(snap);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(b.next(), expected[static_cast<std::size_t>(i)]);
}

TEST(Random, DivergesWithoutStateRestore)
{
    // Control for the round-trip test: a generator that merely shares
    // the seed (not the state) has already diverged after 100 draws.
    Random a(7), b(7);
    for (int i = 0; i < 100; ++i)
        a.next();
    bool differed = false;
    for (int i = 0; i < 100; ++i)
        differed |= a.next() != b.next();
    EXPECT_TRUE(differed);
}

TEST(Random, DifferentSeedsDiffer)
{
    Random a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Random, BelowStaysInRange)
{
    Random r(7);
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.below(13);
        EXPECT_LT(v, 13u);
    }
}

TEST(Random, BelowCoversRange)
{
    Random r(11);
    std::vector<int> counts(8, 0);
    for (int i = 0; i < 8000; ++i)
        ++counts[r.below(8)];
    for (int c : counts)
        EXPECT_GT(c, 700); // roughly uniform
}

TEST(Random, RealInUnitInterval)
{
    Random r(3);
    for (int i = 0; i < 10000; ++i) {
        const double v = r.real();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Random, BetweenInclusive)
{
    Random r(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.between(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Random, ForkIsIndependent)
{
    Random a(9);
    Random child = a.fork();
    EXPECT_NE(a.next(), child.next());
}

TEST(BitUtil, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_TRUE(isPowerOf2(1024));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_FALSE(isPowerOf2(1023));
}

TEST(BitUtil, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(floorLog2(65), 6u);
}

TEST(BitUtil, Bits)
{
    EXPECT_EQ(bits(0xFF00, 8, 8), 0xFFu);
    EXPECT_EQ(bits(0b101100, 2, 3), 0b011u);
}

TEST(BitUtil, DivCeil)
{
    EXPECT_EQ(divCeil(10, 3), 4u);
    EXPECT_EQ(divCeil(9, 3), 3u);
    EXPECT_EQ(divCeil(1, 3), 1u);
}

TEST(Stats, CounterBasics)
{
    stats::Counter c("c");
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, AverageTracksMinMaxMean)
{
    stats::Average a("a");
    a.sample(2);
    a.sample(4);
    a.sample(6);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 6.0);
    EXPECT_EQ(a.count(), 3u);
}

TEST(Stats, HistogramBinning)
{
    stats::Histogram h("h", 10, 10.0);
    h.sample(0);
    h.sample(9.99);
    h.sample(10);
    h.sample(95);
    h.sample(1000); // overflow
    EXPECT_EQ(h.bin(0), 2u);
    EXPECT_EQ(h.bin(1), 1u);
    EXPECT_EQ(h.bin(9), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.total(), 5u);
}

TEST(Stats, HistogramFractions)
{
    stats::Histogram h("h", 4, 1.0);
    h.sample(0.5, 3);
    h.sample(2.5, 1);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.75);
    EXPECT_DOUBLE_EQ(h.fraction(2), 0.25);
}

TEST(Stats, HistogramPercentileInterpolates)
{
    stats::Histogram h("h", 10, 10.0);
    for (int v = 0; v < 100; ++v)
        h.sample(v);
    // Uniform mass: percentiles interpolate linearly across bins.
    EXPECT_DOUBLE_EQ(h.percentile(0.50), 50.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.95), 95.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
}

TEST(Stats, HistogramPercentileSingleBin)
{
    stats::Histogram h("h", 4, 1.0);
    h.sample(0.5, 10); // all mass in bin 0
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.5);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 1.0);
}

TEST(Stats, HistogramPercentileClampsAtOverflow)
{
    stats::Histogram h("h", 4, 1.0);
    h.sample(100.0, 3); // everything overflows
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 4.0);
    h.sample(0.25); // 25% of the mass in bin 0, 75% overflow
    EXPECT_DOUBLE_EQ(h.percentile(0.10), 0.4); // 0.4 of bin 0's mass
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 4.0);
}

TEST(Stats, HistogramPercentileEmpty)
{
    stats::Histogram h("h", 4, 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 0.0);
}

// Regression: percentile(0) used to return 0 even when the smallest
// recorded mass sat in a higher bin.
TEST(Stats, HistogramPercentileZeroNamesFirstMass)
{
    stats::Histogram h("h", 10, 1.0);
    h.sample(3.5, 5); // all mass in bin 3
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 3.0);
    EXPECT_DOUBLE_EQ(h.percentile(-1.0), 3.0); // p < 0 clamps to 0
}

// Regression: percentile(0) with every sample in the overflow bucket
// used to return 0, far below all recorded mass; the convention clamps
// to the top edge.
TEST(Stats, HistogramPercentileZeroAllOverflow)
{
    stats::Histogram h("h", 4, 1.0);
    h.sample(100.0, 3);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 4.0);
}

// Regression: std::clamp passes NaN through, so percentile(NaN) used
// to fall off the bin scan and report the top edge. It now behaves
// like p == 0.
TEST(Stats, HistogramPercentileNonFiniteP)
{
    stats::Histogram h("h", 4, 1.0);
    h.sample(1.5, 8); // all mass in bin 1
    const double nan = std::nan("");
    EXPECT_DOUBLE_EQ(h.percentile(nan), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(
                         std::numeric_limits<double>::infinity()),
                     2.0);
}

// Values the size_t(v / width) cast cannot represent must land in a
// defined bucket instead of invoking undefined behaviour.
TEST(Stats, HistogramSampleExtremeValuesDefined)
{
    stats::Histogram h("h", 4, 1.0);
    h.sample(1e300);                                   // >> top edge
    h.sample(std::numeric_limits<double>::infinity()); // +inf
    h.sample(-std::numeric_limits<double>::infinity());
    h.sample(std::nan(""));
    h.sample(0.5);
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.overflow(), 2u);  // 1e300, +inf
    EXPECT_EQ(h.underflow(), 2u); // -inf, NaN
    EXPECT_EQ(h.bin(0), 1u);
    // Non-finite samples are excluded from the sum so the mean stays
    // finite (1e300 still dominates it, but it is a number).
    EXPECT_TRUE(std::isfinite(h.mean()));
}

TEST(Stats, GroupDumpContainsNames)
{
    stats::Group g("grp");
    g.addCounter("events").inc(7);
    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("grp.events = 7"), std::string::npos);
}

TEST(KvText, ReadsKeyValueLinesWithLineNumbers)
{
    std::istringstream in("# comment\n\n  a = 1  # trailing\nb=x = y\n");
    const auto lines = readKvLines(in, "f");
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0].where, "f:3");
    EXPECT_EQ(lines[0].key, "a");
    EXPECT_EQ(lines[0].value, "1");
    EXPECT_EQ(lines[1].key, "b");
    EXPECT_EQ(lines[1].value, "x = y");
    for (const char *bad : {"a 1\n", "= 1\n", "a =\n"}) {
        std::istringstream b(bad);
        try {
            readKvLines(b, "f");
            ADD_FAILURE() << bad;
        } catch (const ConfigError &e) {
            EXPECT_STREQ(e.what(), "f:1: expected 'key = value'");
        }
    }
}

TEST(KvText, NumbersAreCheckedWholeTokens)
{
    EXPECT_EQ(parseU64("c", "18446744073709551615"), ~0ull);
    for (const char *bad : {"", "-1", "+1", " 1", "1k", "0x10",
                            "18446744073709551616"})
        EXPECT_THROW(parseU64("c", bad), ConfigError) << bad;
    EXPECT_EQ(parseUnsigned("c", "4294967295"), 4294967295u);
    EXPECT_THROW(parseUnsigned("c", "4294967296"), ConfigError);
    EXPECT_DOUBLE_EQ(parseF64("c", "-2.5e1"), -25.0);
    for (const char *bad : {"", "nan", "inf", "-inf", "1e999", "1.5x",
                            " 1"})
        EXPECT_THROW(parseF64("c", bad), ConfigError) << bad;
    try {
        parseU64("--instr", "-5");
        ADD_FAILURE();
    } catch (const ConfigError &e) {
        EXPECT_STREQ(e.what(), "--instr: expected a non-negative integer, "
                               "got '-5'");
    }
}

TEST(KvText, BoolsAndLists)
{
    for (const char *t : {"on", "true", "yes", "1"})
        EXPECT_TRUE(parseBool("c", t));
    for (const char *f : {"off", "false", "no", "0"})
        EXPECT_FALSE(parseBool("c", f));
    EXPECT_THROW(parseBool("c", "maybe"), ConfigError);
    EXPECT_EQ(splitList("c", " a , b ,c"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(splitList("c", "8:0", ':'),
              (std::vector<std::string>{"8", "0"}));
    for (const char *bad : {"", "a,", ",a", "a,,b", "a, ,b"})
        EXPECT_THROW(splitList("c", bad), ConfigError) << bad;
}

} // namespace
} // namespace mitts

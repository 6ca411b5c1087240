/**
 * @file
 * Tests for the cloud-at-scale scenario engine (src/cloud/): scenario
 * parsing, the tenant population process, the tier marketplace,
 * per-slot cloud traces, closed-form admission control, the SLA
 * monitor's Clocked contract, and end-to-end engine determinism
 * (skip vs no-skip kernels, checkpoint/restore warm starts).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt_edit.hh"
#include "cloud/cloud_trace.hh"
#include "cloud/engine.hh"
#include "iaas/pricing.hh"

namespace mitts
{
namespace
{

using cloud::AdmissionControl;
using cloud::AdmissionDecision;
using cloud::CloudEngine;
using cloud::CloudTrace;
using cloud::Marketplace;
using cloud::ScenarioConfig;
using cloud::ScenarioError;
using cloud::SlaMonitor;
using cloud::SlotLoad;
using cloud::TenantPopulation;
using cloud::TenantRecord;

// --------------------------------------------------------------
// Scenario files.

ScenarioConfig
parseText(const std::string &text)
{
    std::istringstream in(text);
    return cloud::parseScenario(in, "test");
}

TEST(CloudScenario, ParsesEveryKey)
{
    const ScenarioConfig sc = parseText(
        "# a comment line\n"
        "name = night-shift\n"
        "seed = 99\n"
        "sockets = 3\n"
        "cores_per_socket = 2\n"
        "window = 5000\n"
        "duration = 50000   # trailing comment\n"
        "arrivals_per_window = 1.5\n"
        "mean_residency_windows = 6\n"
        "diurnal_period = 20000\n"
        "diurnal_min = 0.4\n"
        "max_tenants = 7\n"
        "profiles = gcc,mcf\n"
        "tier_weights = 1,0,2\n"
        "autoscaler = off\n"
        "upgrade_stall_fraction = 0.2\n"
        "downgrade_stall_fraction = 0.01\n"
        "demand_stall_fraction = 0.3\n"
        "telemetry = on\n"
        "sample_interval = 2500\n");
    EXPECT_EQ(sc.name, "night-shift");
    EXPECT_EQ(sc.seed, 99u);
    EXPECT_EQ(sc.sockets, 3u);
    EXPECT_EQ(sc.coresPerSocket, 2u);
    EXPECT_EQ(sc.windowCycles, 5'000u);
    EXPECT_EQ(sc.durationCycles, 50'000u);
    EXPECT_DOUBLE_EQ(sc.arrivalsPerWindow, 1.5);
    EXPECT_DOUBLE_EQ(sc.meanResidencyWindows, 6.0);
    EXPECT_EQ(sc.diurnalPeriod, 20'000u);
    EXPECT_DOUBLE_EQ(sc.diurnalMin, 0.4);
    EXPECT_EQ(sc.maxTenants, 7u);
    EXPECT_EQ(sc.profiles,
              (std::vector<std::string>{"gcc", "mcf"}));
    EXPECT_EQ(sc.tierWeights, (std::vector<double>{1, 0, 2}));
    EXPECT_FALSE(sc.autoscaler);
    EXPECT_DOUBLE_EQ(sc.upgradeStallFraction, 0.2);
    EXPECT_DOUBLE_EQ(sc.downgradeStallFraction, 0.01);
    EXPECT_DOUBLE_EQ(sc.demandStallFraction, 0.3);
    EXPECT_TRUE(sc.telemetry);
    EXPECT_EQ(sc.sampleInterval, 2'500u);
}

TEST(CloudScenario, ErrorsCarryFileAndLine)
{
    try {
        parseText("seed = 1\nno_such_key = 5\n");
        FAIL() << "expected ScenarioError";
    } catch (const ScenarioError &e) {
        EXPECT_NE(std::string(e.what()).find("test:2"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("no_such_key"),
                  std::string::npos);
    }
    EXPECT_THROW(parseText("seed = twelve\n"), ScenarioError);
    EXPECT_THROW(parseText("seed = 1 2\n"), ScenarioError);
    EXPECT_THROW(parseText("seed\n"), ScenarioError);
    EXPECT_THROW(parseText("autoscaler = maybe\n"), ScenarioError);
}

/** What parseText(text) throws; empty if it parses. */
std::string
parseError(const std::string &text)
{
    try {
        parseText(text);
    } catch (const ScenarioError &e) {
        return e.what();
    }
    return "";
}

TEST(CloudScenario, RejectsNumbersThatWrapOrAreNotFinite)
{
    // Each of these used to be accepted: a negative integer wrapped
    // to 2^64-1, nan/inf slipped past the range checks (nan leaves
    // the population with no arrivals), and an unsigned field kept
    // the low 32 bits.
    for (const char *line :
         {"seed = -1", "window = -10000", "diurnal_min = nan",
          "arrivals_per_window = inf", "mean_residency_windows = nan",
          "sockets = 4294967297", "cores_per_socket = 4294967297",
          "max_tenants = 4294967297"}) {
        const std::string err =
            parseError(std::string("name = x\n") + line + "\n");
        EXPECT_EQ(err.rfind("test:2: ", 0), 0u) << line << " -> " << err;
    }
}

TEST(CloudScenario, OldStyleLineNamesTheFormat)
{
    EXPECT_EQ(parseError("# header\nseed 7\n"),
              "test:2: expected 'key = value'");
    EXPECT_EQ(parseError("profiles = gcc,,mcf\n").rfind("test:1: ", 0), 0u);
}

TEST(CloudScenario, CommittedScenariosParse)
{
    unsigned n = 0;
    for (const auto &e : std::filesystem::directory_iterator(
             std::string(MITTS_REPO_ROOT) + "/scenarios")) {
        if (e.path().extension() != ".scn")
            continue;
        EXPECT_NO_THROW(cloud::parseScenarioFile(e.path().string()))
            << e.path();
        ++n;
    }
    EXPECT_GT(n, 0u);
}

TEST(CloudScenario, ValidationRejectsInconsistentConfigs)
{
    EXPECT_THROW(parseText("duration = 150\nwindow = 100\n"),
                 ScenarioError);
    EXPECT_THROW(parseText("sockets = 0\n"), ScenarioError);
    EXPECT_THROW(parseText("profiles = not_a_profile\n"),
                 ScenarioError);
    EXPECT_THROW(parseText("diurnal_min = 0\n"), ScenarioError);
    EXPECT_THROW(parseText("demand_stall_fraction = 1.5\n"),
                 ScenarioError);
}

TEST(CloudScenario, HashTracksEveryField)
{
    const ScenarioConfig a = parseText("seed = 1\n");
    ScenarioConfig b = a;
    EXPECT_EQ(cloud::scenarioHash(a), cloud::scenarioHash(b));
    b.seed = 2;
    EXPECT_NE(cloud::scenarioHash(a), cloud::scenarioHash(b));
    b = a;
    b.profiles.push_back("mcf");
    EXPECT_NE(cloud::scenarioHash(a), cloud::scenarioHash(b));
}

// --------------------------------------------------------------
// Population process.

ScenarioConfig
populationScenario(std::uint64_t seed)
{
    ScenarioConfig sc;
    sc.seed = seed;
    sc.windowCycles = 10'000;
    sc.durationCycles = 400'000;
    sc.arrivalsPerWindow = 1.0;
    sc.meanResidencyWindows = 4.0;
    sc.diurnalPeriod = 100'000;
    sc.diurnalMin = 0.25;
    sc.profiles = {"gcc", "mcf", "libquantum"};
    return sc;
}

TEST(CloudPopulation, DeterministicPerSeed)
{
    const ScenarioConfig sc = populationScenario(7);
    const TenantPopulation a(sc, 5);
    const TenantPopulation b(sc, 5);
    ASSERT_EQ(a.arrivals().size(), b.arrivals().size());
    ASSERT_FALSE(a.arrivals().empty());
    for (std::size_t i = 0; i < a.arrivals().size(); ++i) {
        EXPECT_EQ(a.arrivals()[i].arriveAt, b.arrivals()[i].arriveAt);
        EXPECT_EQ(a.arrivals()[i].residencyCycles,
                  b.arrivals()[i].residencyCycles);
        EXPECT_EQ(a.arrivals()[i].profileIdx,
                  b.arrivals()[i].profileIdx);
        EXPECT_EQ(a.arrivals()[i].tierIdx, b.arrivals()[i].tierIdx);
    }

    const TenantPopulation c(populationScenario(8), 5);
    bool differs = c.arrivals().size() != a.arrivals().size();
    for (std::size_t i = 0;
         !differs && i < a.arrivals().size(); ++i) {
        differs = a.arrivals()[i].arriveAt != c.arrivals()[i].arriveAt ||
                  a.arrivals()[i].profileIdx !=
                      c.arrivals()[i].profileIdx;
    }
    EXPECT_TRUE(differs) << "different seeds drew the same stream";
}

TEST(CloudPopulation, ArrivalsAreWindowAlignedAndBounded)
{
    // A huge mean residency once overflowed the cast to Tick and
    // billed every tenant for a single window.
    for (const double mean : {4.0, 1e300}) {
        ScenarioConfig sc = populationScenario(11);
        sc.meanResidencyWindows = mean;
        const TenantPopulation pop(sc, 5);
        ASSERT_FALSE(pop.arrivals().empty());
        unsigned id = 0;
        for (const auto &t : pop.arrivals()) {
            EXPECT_EQ(t.id, id++);
            EXPECT_EQ(t.arriveAt % sc.windowCycles, 0u);
            EXPECT_LT(t.arriveAt, sc.durationCycles);
            EXPECT_GE(t.residencyCycles, sc.windowCycles) << mean;
            EXPECT_EQ(t.residencyCycles % sc.windowCycles, 0u);
            EXPECT_LT(t.profileIdx, sc.profiles.size());
            EXPECT_LT(t.tierIdx, 5u);
        }
    }
}

TEST(CloudPopulation, MaxTenantsCapsArrivals)
{
    ScenarioConfig sc = populationScenario(11);
    sc.maxTenants = 5;
    const TenantPopulation pop(sc, 5);
    EXPECT_LE(pop.arrivals().size(), 5u);
}

TEST(CloudPopulation, DiurnalCurveShape)
{
    ScenarioConfig flat = populationScenario(1);
    flat.diurnalPeriod = 0;
    EXPECT_DOUBLE_EQ(TenantPopulation::diurnalFactor(flat, 12'345),
                     1.0);

    const ScenarioConfig sc = populationScenario(1);
    EXPECT_NEAR(TenantPopulation::diurnalFactor(sc, 0),
                sc.diurnalMin, 1e-9);
    EXPECT_NEAR(
        TenantPopulation::diurnalFactor(sc, sc.diurnalPeriod / 2),
        1.0, 1e-9);
    for (Tick t = 0; t < sc.diurnalPeriod; t += 7'919) {
        const double f = TenantPopulation::diurnalFactor(sc, t);
        EXPECT_GE(f, sc.diurnalMin - 1e-12);
        EXPECT_LE(f, 1.0 + 1e-12);
    }
}

// --------------------------------------------------------------
// Marketplace.

struct MarketFixture : public ::testing::Test
{
    MarketFixture() : market(BinSpec{}, PricingModel{}) {}
    Marketplace market;
};

TEST_F(MarketFixture, MenuAndFamilyMaps)
{
    ASSERT_EQ(market.numTiers(), 5u);
    EXPECT_EQ(market.tierIndex("bulk-s"), 0);
    EXPECT_EQ(market.tierIndex("premium"), 4);
    EXPECT_EQ(market.tierIndex("gold-plated"), -1);

    // Upgrades stay inside the traffic-shape family and invert back.
    for (unsigned i = 0; i < market.numTiers(); ++i) {
        const int up = market.upgradeOf(i);
        if (up >= 0) {
            EXPECT_EQ(market.downgradeOf(static_cast<unsigned>(up)),
                      static_cast<int>(i));
        }
        const int down = market.downgradeOf(i);
        if (down >= 0) {
            EXPECT_EQ(market.upgradeOf(static_cast<unsigned>(down)),
                      static_cast<int>(i));
        }
    }
}

TEST_F(MarketFixture, TiersPricedAndSlasDerated)
{
    for (unsigned i = 0; i < market.numTiers(); ++i) {
        const cloud::Tier &t = market.tier(i);
        EXPECT_GT(t.pricePerPeriod, 0.0) << t.name;
        EXPECT_GT(t.slaP99Cycles, 0.0) << t.name;
        EXPECT_GT(t.sustainedGBps, 0.0) << t.name;
        // The floor is a derated fraction of the shaped rate: the
        // admission curve is an upper bound on what a tenant sees.
        EXPECT_GT(t.slaMinGBps, 0.0) << t.name;
        EXPECT_LT(t.slaMinGBps, t.sustainedGBps) << t.name;
    }
}

TEST_F(MarketFixture, BurstCostsMoreThanBulkForSameBandwidth)
{
    // Same average bandwidth, but burst credits carry the Fig. 17
    // penalty: burst-s vs bulk-s and burst-l vs bulk-l.
    EXPECT_GT(market.tier(2).pricePerPeriod,
              market.tier(0).pricePerPeriod);
    EXPECT_GT(market.tier(3).pricePerPeriod,
              market.tier(1).pricePerPeriod);
    // ...and buys a tighter latency promise.
    EXPECT_LT(market.tier(2).slaP99Cycles,
              market.tier(0).slaP99Cycles);
}

// --------------------------------------------------------------
// Cloud trace (revolving-door slot workload).

TEST(CloudTraceTest, GenerationsAreDeterministicAndDecorrelated)
{
    CloudTrace a(1 << 30, 0xABCD);
    CloudTrace b(1 << 30, 0xABCD);
    a.occupy("gcc", 3);
    b.occupy("gcc", 3);
    for (int i = 0; i < 200; ++i) {
        const TraceOp oa = a.next();
        const TraceOp ob = b.next();
        EXPECT_EQ(oa.addr, ob.addr);
        EXPECT_EQ(oa.gap, ob.gap);
        EXPECT_EQ(oa.isWrite, ob.isWrite);
    }

    // A later tenant of the same slot must not replay its
    // predecessor's stream.
    CloudTrace c(1 << 30, 0xABCD);
    c.occupy("gcc", 4);
    a.vacate();
    a.occupy("gcc", 3); // rebuild generation 3 from scratch
    bool differs = false;
    for (int i = 0; i < 200 && !differs; ++i) {
        const TraceOp oa = a.next();
        const TraceOp oc = c.next();
        differs = oa.addr != oc.addr || oa.gap != oc.gap;
    }
    EXPECT_TRUE(differs);
}

TEST(CloudTraceTest, StretchScalesGapsNotAddresses)
{
    CloudTrace plain(1 << 30, 77);
    CloudTrace slow(1 << 30, 77);
    plain.occupy("libquantum", 1);
    slow.occupy("libquantum", 1);
    slow.setStretch(2.0);

    // The stretch scales whole ops (gap instructions + the memory
    // op itself); a carry accumulator keeps the long-run ratio
    // exact, so count instructions, not bare gaps.
    std::uint64_t insns_plain = 0, insns_slow = 0;
    for (int i = 0; i < 500; ++i) {
        const TraceOp p = plain.next();
        const TraceOp s = slow.next();
        EXPECT_EQ(p.addr, s.addr); // only intensity changes
        insns_plain += p.gap + 1;
        insns_slow += s.gap + 1;
    }
    ASSERT_GT(insns_plain, 0u);
    const double ratio = static_cast<double>(insns_slow) /
                         static_cast<double>(insns_plain);
    EXPECT_NEAR(ratio, 2.0, 0.01);
}

TEST(CloudTraceTest, SerializeRoundTripResumesMidStream)
{
    CloudTrace t(1 << 30, 5);
    t.occupy("mcf", 9);
    t.setStretch(1.5);
    for (int i = 0; i < 57; ++i)
        t.next();

    ckpt::Writer w;
    w.beginSection("trace");
    t.saveState(w);
    w.endSection();

    CloudTrace u(1 << 30, 5);
    ckpt::Reader r(w.finish(0), 0);
    r.beginSection("trace");
    u.loadState(r);
    r.endSection();

    EXPECT_TRUE(u.occupied());
    EXPECT_EQ(u.profileName(), "mcf");
    EXPECT_DOUBLE_EQ(u.stretch(), 1.5);
    for (int i = 0; i < 100; ++i) {
        const TraceOp a = t.next();
        const TraceOp b = u.next();
        EXPECT_EQ(a.addr, b.addr);
        EXPECT_EQ(a.gap, b.gap);
        EXPECT_EQ(a.isWrite, b.isWrite);
    }
}

// --------------------------------------------------------------
// Admission control: closed-form feasibility, no simulation.

struct AdmissionFixture : public ::testing::Test
{
    AdmissionFixture()
        : market(base.binSpec, PricingModel{}),
          adm(base, market)
    {
    }

    SystemConfig base;
    Marketplace market;
    AdmissionControl adm;
};

TEST_F(AdmissionFixture, EmptySocketAdmitsEveryTier)
{
    // Every tier on the menu must be solo-feasible, or it could
    // never be sold at all (the burst-l calibration regression).
    for (unsigned i = 0; i < market.numTiers(); ++i) {
        const AdmissionDecision d =
            adm.decide({}, SlotLoad{"gcc", i});
        EXPECT_TRUE(d.admit) << market.tier(i).name << ": "
                             << d.reason;
        EXPECT_EQ(d.reason, "ok");
        EXPECT_GT(d.aggDelayBoundCycles, 0.0);
    }
}

TEST_F(AdmissionFixture, InfeasibleTenantIsRejectedWithJustification)
{
    // Pile premium tenants onto one socket until the closed-form
    // checks refuse the next one.
    const unsigned premium =
        static_cast<unsigned>(market.tierIndex("premium"));
    std::vector<SlotLoad> residents;
    AdmissionDecision last;
    bool rejected = false;
    for (int i = 0; i < 32 && !rejected; ++i) {
        last = adm.decide(residents, SlotLoad{"mcf", premium});
        if (last.admit)
            residents.push_back(SlotLoad{"mcf", premium});
        else
            rejected = true;
    }
    ASSERT_TRUE(rejected)
        << "admission never refused an overloaded socket";

    // The verdict names the failing analytic check and carries the
    // numbers that justify it.
    const bool analytic_reason =
        last.reason.rfind("rate:", 0) == 0 ||
        last.reason.rfind("delay:", 0) == 0 ||
        last.reason.rfind("model:", 0) == 0;
    EXPECT_TRUE(analytic_reason) << last.reason;
    EXPECT_GT(last.aggDelayBoundCycles, 0.0);

    // Demand at the refusal point really is infeasible: the shaped
    // sustained rates exceed the derated bus capacity, or the FIFO
    // bound breaks the SLA.
    const double cap_gbps = adm.busCapacity() *
                            static_cast<double>(kBlockBytes) *
                            base.cpuGhz;
    double demand_gbps =
        market.tier(premium).sustainedGBps; // the candidate
    for (const auto &r : residents)
        demand_gbps += market.tier(r.tierIdx).sustainedGBps;
    const bool rate_infeasible = demand_gbps > 0.95 * cap_gbps;
    const bool delay_infeasible =
        last.aggDelayBoundCycles >
        market.tier(premium).slaP99Cycles;
    EXPECT_TRUE(rate_infeasible || delay_infeasible ||
                last.reason.rfind("model:", 0) == 0);
}

TEST_F(AdmissionFixture, DecisionIsAPureFunction)
{
    const std::vector<SlotLoad> residents{
        SlotLoad{"gcc", 0}, SlotLoad{"mcf", 4}};
    const SlotLoad cand{"libquantum", 2};
    const AdmissionDecision a = adm.decide(residents, cand);
    const AdmissionDecision b = adm.decide(residents, cand);
    EXPECT_EQ(a.admit, b.admit);
    EXPECT_EQ(a.reason, b.reason);
    EXPECT_DOUBLE_EQ(a.aggDelayBoundCycles, b.aggDelayBoundCycles);
    EXPECT_DOUBLE_EQ(a.analyticMeanLatency, b.analyticMeanLatency);
    EXPECT_DOUBLE_EQ(a.busUtilization, b.busUtilization);
}

// --------------------------------------------------------------
// SLA monitor Clocked contract.

TEST(CloudSlaMonitor, WakeClaimHitsWindowBoundaries)
{
    SystemConfig cfg = SystemConfig::multiProgram({"gcc"});
    cfg.mc.latencyHistograms = true;
    System sys(cfg);
    SlaMonitor m(sys, 1'000, 0.25);

    EXPECT_EQ(m.nextWakeTick(0), 999u);
    EXPECT_EQ(m.nextWakeTick(500), 999u);
    // The boundary cycle itself claims the *next* boundary.
    EXPECT_EQ(m.nextWakeTick(999), 1'999u);

    EXPECT_FALSE(m.occupied(0));
    m.occupy(0, 42, 600.0, 1.0);
    EXPECT_TRUE(m.occupied(0));
    EXPECT_EQ(m.tenantId(0), 42u);
    m.vacate(0);
    EXPECT_FALSE(m.occupied(0));
}

TEST(CloudSlaMonitor, CheckpointRoundTripRestoresSlots)
{
    SystemConfig cfg = SystemConfig::multiProgram({"gcc"});
    cfg.mc.latencyHistograms = true;
    System sys(cfg);

    SlaMonitor a(sys, 1'000, 0.25);
    a.occupy(0, 7, 600.0, 1.5);

    ckpt::Writer w;
    w.beginSection("sla");
    a.saveState(w);
    w.endSection();

    SlaMonitor b(sys, 1'000, 0.25);
    ckpt::Reader r(w.finish(0), 0);
    r.beginSection("sla");
    b.loadState(r);
    r.endSection();

    EXPECT_TRUE(b.occupied(0));
    EXPECT_EQ(b.tenantId(0), 7u);
}

// --------------------------------------------------------------
// End-to-end engine determinism.

ScenarioConfig
smallScenario()
{
    ScenarioConfig sc;
    sc.name = "unit-small";
    sc.seed = 7;
    sc.sockets = 2;
    sc.coresPerSocket = 2;
    sc.windowCycles = 10'000;
    sc.durationCycles = 100'000;
    sc.arrivalsPerWindow = 0.8;
    sc.meanResidencyWindows = 3.0;
    sc.diurnalPeriod = 50'000;
    sc.diurnalMin = 0.5;
    sc.profiles = {"gcc", "mcf"};
    return sc;
}

struct EngineReport
{
    std::string billing;
    std::string summary;
    std::string stats;
};

EngineReport
reportOf(CloudEngine &e)
{
    EngineReport r;
    std::ostringstream b, s, st;
    e.writeBillingCsv(b);
    e.writeSummary(s);
    e.dumpStats(st);
    r.billing = b.str();
    r.summary = s.str();
    r.stats = st.str();
    return r;
}

TEST(CloudEngineTest, SmallScenarioRunsAndBills)
{
    CloudEngine e(smallScenario());
    e.run();
    EXPECT_EQ(e.now(), 100'000u);

    const auto &recs = e.records();
    ASSERT_FALSE(recs.empty());
    unsigned admitted = 0, departed = 0;
    for (const TenantRecord &t : recs) {
        EXPECT_FALSE(t.reason.empty());
        if (t.admitted) {
            ++admitted;
            EXPECT_EQ(t.reason, "ok");
            EXPECT_GE(t.socket, 0);
            EXPECT_GT(t.aggDelayBoundCycles, 0.0);
        }
        if (t.departed) {
            ++departed;
            EXPECT_GT(t.bill, 0.0);
            EXPECT_GE(t.windows, 1u);
        }
    }
    EXPECT_GT(admitted, 0u);
    EXPECT_GT(departed, 0u);

    const EngineReport r = reportOf(e);
    EXPECT_NE(r.billing.find("id,name,profile"), std::string::npos);
    EXPECT_NE(r.summary.find("admitted"), std::string::npos);
}

TEST(CloudEngineTest, SkipAndNoSkipKernelsAgreeByteForByte)
{
    CloudEngine skip(smallScenario());
    SimulationConfig no_skip_cfg;
    no_skip_cfg.skipAhead = false;
    CloudEngine no_skip(smallScenario(), "", no_skip_cfg);

    skip.run();
    no_skip.run();

    const EngineReport a = reportOf(skip);
    const EngineReport b = reportOf(no_skip);
    EXPECT_EQ(a.billing, b.billing);
    EXPECT_EQ(a.summary, b.summary);
    EXPECT_EQ(a.stats, b.stats);
}

TEST(CloudEngineTest, CheckpointResumeIsBitIdentical)
{
    namespace fs = std::filesystem;
    const std::string dir =
        (fs::temp_directory_path() / "mitts_cloud_ckpt_test")
            .string();
    fs::remove_all(dir);

    CloudEngine straight(smallScenario());
    straight.run();

    CloudEngine half(smallScenario());
    half.runUntil(50'000);
    half.saveCheckpoint(dir);

    CloudEngine resumed(smallScenario());
    resumed.restoreCheckpoint(dir);
    EXPECT_EQ(resumed.now(), 50'000u);
    resumed.run();

    const EngineReport a = reportOf(straight);
    const EngineReport b = reportOf(resumed);
    EXPECT_EQ(a.billing, b.billing);
    EXPECT_EQ(a.summary, b.summary);
    EXPECT_EQ(a.stats, b.stats);

    fs::remove_all(dir);
}

TEST(CloudEngineTest, RestoreRefusesMismatchedScenario)
{
    namespace fs = std::filesystem;
    const std::string dir =
        (fs::temp_directory_path() / "mitts_cloud_ckpt_mismatch")
            .string();
    fs::remove_all(dir);

    CloudEngine saver(smallScenario());
    saver.runUntil(20'000);
    saver.saveCheckpoint(dir);

    ScenarioConfig other = smallScenario();
    other.seed = 8;
    CloudEngine wrong(other);
    EXPECT_THROW(wrong.restoreCheckpoint(dir), ckpt::Error);

    fs::remove_all(dir);
}

// A directory mixing socket images from two saves (say, an interrupted
// save over an older one) must not restore: every socket runs every
// window, so a valid image is at the datacenter's cycle.
TEST(CloudEngineTest, RestoreRefusesSocketImageFromAnotherSave)
{
    namespace fs = std::filesystem;
    const fs::path tmp = fs::temp_directory_path();
    const std::string early = (tmp / "mitts_cloud_ckpt_early").string();
    const std::string late = (tmp / "mitts_cloud_ckpt_late").string();
    fs::remove_all(early);
    fs::remove_all(late);

    CloudEngine saver(smallScenario());
    saver.runUntil(20'000);
    saver.saveCheckpoint(early);
    saver.runUntil(40'000);
    saver.saveCheckpoint(late);
    fs::copy_file(early + "/socket0.mitts", late + "/socket0.mitts",
                  fs::copy_options::overwrite_existing);

    CloudEngine mixed(smallScenario());
    try {
        mixed.restoreCheckpoint(late);
        ADD_FAILURE() << "restored a socket image from another save";
    } catch (const ckpt::Error &e) {
        EXPECT_EQ(std::string(e.what()),
                  "socket 0 image is at cycle 20000, the datacenter "
                  "at 40000");
    }

    fs::remove_all(early);
    fs::remove_all(late);
}

// Slot and record indices in cloud.mitts index the engine's tables
// directly. Each must name a real record, tier, socket and slot, or
// the restore fails with one ckpt::Error: a bad tier used to abort on
// an uncaught std::out_of_range and a bad record to read out of
// bounds. Returns the restore's error after `edit` is applied to
// `section` of a mid-scenario save ("" when the image restores).
std::string
cloudRestoreError(const std::string &tag, const std::string &section,
                  const std::function<void(std::string &)> &edit)
{
    namespace fs = std::filesystem;
    const std::string dir =
        (fs::temp_directory_path() / ("mitts_cloud_corrupt_" + tag))
            .string();
    fs::remove_all(dir);
    CloudEngine saver(smallScenario());
    saver.runUntil(50'000);
    saver.saveCheckpoint(dir);
    const std::string path = dir + "/cloud.mitts";
    ckpt_edit::writeFile(
        path, ckpt_edit::editSection(ckpt_edit::readFile(path), section,
                                     edit));
    std::string error;
    try {
        CloudEngine restored(smallScenario());
        restored.restoreCheckpoint(dir);
    } catch (const ckpt::Error &e) {
        error = e.what();
    }
    fs::remove_all(dir);
    return error;
}

// The "slots" section: per slot an i64 record, u64 departAt, u64 tier.
TEST(CloudEngineTest, RestoreRejectsSlotTier)
{
    const std::string error =
        cloudRestoreError("slot_tier", "slots", [](std::string &p) {
            ckpt_edit::putLe(p, 16, 99, 8);
        });
    EXPECT_NE(error.find("slot 0.0 tier 99 is out of range"),
              std::string::npos)
        << error;
}

TEST(CloudEngineTest, RestoreRejectsSlotRecord)
{
    const std::string error =
        cloudRestoreError("slot_record", "slots", [](std::string &p) {
            ckpt_edit::putLe(p, 0, 1'000'000, 8);
        });
    EXPECT_NE(error.find("slot 0.0 record 1000000 is out of range"),
              std::string::npos)
        << error;
}

// The "records" section: u64 count, then per record two flags, the
// reason string (u64 length + bytes), i64 socket, u64 slot,
// admittedAt, departedAt and the u64 final tier.
TEST(CloudEngineTest, RestoreRejectsRecordTier)
{
    const std::string error =
        cloudRestoreError("record_tier", "records", [](std::string &p) {
            ASSERT_GT(ckpt_edit::getLe(p, 0, 8), 0u);
            const std::size_t tier_at = 50 + ckpt_edit::getLe(p, 10, 8);
            ckpt_edit::putLe(p, tier_at, 99, 8);
        });
    EXPECT_NE(error.find("record 0 tier 99 is out of range"),
              std::string::npos)
        << error;
}

// Restore then save at once must reproduce every image byte for byte.
TEST(CloudEngineTest, ResaveAfterRestoreIsByteIdentical)
{
    namespace fs = std::filesystem;
    const ScenarioConfig sc = cloud::parseScenarioFile(
        std::string(MITTS_REPO_ROOT) + "/scenarios/ci-small.scn");
    const fs::path tmp = fs::temp_directory_path();
    const fs::path first = tmp / "mitts_cloud_resave_a";
    const fs::path second = tmp / "mitts_cloud_resave_b";
    fs::remove_all(first);
    fs::remove_all(second);

    CloudEngine saver(sc);
    saver.runUntil(50'000);
    saver.saveCheckpoint(first.string());

    CloudEngine resaver(sc);
    resaver.restoreCheckpoint(first.string());
    resaver.saveCheckpoint(second.string());

    auto images = [](const fs::path &dir) {
        std::map<std::string, std::string> m;
        for (const auto &e : fs::directory_iterator(dir)) {
            std::ifstream in(e.path(), std::ios::binary);
            std::ostringstream buf;
            buf << in.rdbuf();
            m[e.path().filename().string()] = buf.str();
        }
        return m;
    };
    const auto a = images(first);
    EXPECT_EQ(a.size(), sc.sockets + 1u); // socketN.mitts + cloud.mitts
    EXPECT_TRUE(a == images(second))
        << "an image differs after restore and re-save";

    fs::remove_all(first);
    fs::remove_all(second);
}

} // namespace
} // namespace mitts

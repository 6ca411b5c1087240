/**
 * @file
 * Checkpoint/restore: format primitives, corruption rejection,
 * event-queue drain ordering, and full-system bit-identical resume.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/config_hash.hh"
#include "ckpt/serialize.hh"
#include "sim/event_queue.hh"
#include "system/system.hh"
#include "tuner/online_tuner.hh"
#include "tuner/phase_switcher.hh"

namespace mitts
{
namespace
{

std::string
tmpPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

// --- format primitives --------------------------------------------------

TEST(CkptFormat, PrimitiveRoundTrip)
{
    ckpt::Writer w;
    w.beginSection("prims");
    w.u8(0xAB);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFull);
    w.i64(-42);
    w.f64(3.141592653589793);
    w.b(true);
    w.b(false);
    w.str("hello checkpoint");
    w.endSection();
    w.beginSection("vecs");
    w.vecU32({1, 2, 3});
    w.vecU64({});
    w.vecF64({0.5, -0.25});
    w.vecBool({true, false, true});
    w.endSection();

    ckpt::Reader r(w.finish(0x1234), 0x1234);
    r.beginSection("prims");
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_DOUBLE_EQ(r.f64(), 3.141592653589793);
    EXPECT_TRUE(r.b());
    EXPECT_FALSE(r.b());
    EXPECT_EQ(r.str(), "hello checkpoint");
    r.endSection();
    r.beginSection("vecs");
    EXPECT_EQ(r.vecU32(), (std::vector<std::uint32_t>{1, 2, 3}));
    EXPECT_TRUE(r.vecU64().empty());
    EXPECT_EQ(r.vecF64(), (std::vector<double>{0.5, -0.25}));
    EXPECT_EQ(r.vecBool(), (std::vector<bool>{true, false, true}));
    r.endSection();
    EXPECT_EQ(r.remainingSections(), 0u);
}

TEST(CkptFormat, RequestInterningPreservesAliasing)
{
    RequestPool pool;
    ReqPtr a = pool.make(1, 0x1000, MemOp::Read, 0, 5);
    ReqPtr b = pool.make(2, 0x2000, MemOp::Writeback, kNoCore, 9);
    a->llcHit = true;
    a->doneAt = 77;

    ckpt::Writer w;
    w.beginSection("reqs");
    w.request(a);
    w.request(b);
    w.request(a); // alias
    w.request(nullptr);
    w.endSection();

    RequestPool restorePool;
    ckpt::Reader r(w.finish(0), 0);
    r.bindPool(restorePool);
    r.beginSection("reqs");
    ReqPtr ra = r.request();
    ReqPtr rb = r.request();
    ReqPtr ra2 = r.request();
    ReqPtr rn = r.request();
    r.endSection();

    ASSERT_TRUE(ra && rb);
    EXPECT_EQ(ra, ra2); // same object, not a copy
    EXPECT_EQ(rn, nullptr);
    EXPECT_EQ(ra->seq, 1u);
    EXPECT_EQ(ra->addr, 0x1000u);
    EXPECT_TRUE(ra->llcHit);
    EXPECT_EQ(ra->doneAt, 77u);
    EXPECT_EQ(rb->op, MemOp::Writeback);
    EXPECT_EQ(rb->core, kNoCore);
}

TEST(CkptFormat, RejectsBadMagic)
{
    ckpt::Writer w;
    w.beginSection("s");
    w.u64(1);
    w.endSection();
    std::string img = w.finish(0);
    img[0] ^= 0x5A;
    EXPECT_THROW(ckpt::Reader(std::move(img), 0), ckpt::Error);
}

TEST(CkptFormat, RejectsWrongVersion)
{
    ckpt::Writer w;
    w.beginSection("s");
    w.u64(1);
    w.endSection();
    std::string img = w.finish(0);
    img[8] = 99; // version field follows the 8-byte magic
    EXPECT_THROW(ckpt::Reader(std::move(img), 0), ckpt::Error);
}

TEST(CkptFormat, RejectsConfigHashMismatch)
{
    ckpt::Writer w;
    w.beginSection("s");
    w.u64(1);
    w.endSection();
    const std::string img = w.finish(0xAAAA);
    EXPECT_THROW(ckpt::Reader(img, 0xBBBB), ckpt::Error);
}

TEST(CkptFormat, RejectsCorruptedPayload)
{
    ckpt::Writer w;
    w.beginSection("s");
    w.vecU64({1, 2, 3, 4});
    w.endSection();
    std::string img = w.finish(0);
    img[img.size() / 2] ^= 0x01;
    EXPECT_THROW(ckpt::Reader(std::move(img), 0), ckpt::Error);
}

TEST(CkptFormat, RejectsTruncation)
{
    ckpt::Writer w;
    w.beginSection("s");
    w.vecU64({1, 2, 3, 4});
    w.endSection();
    const std::string img = w.finish(0);
    for (std::size_t len : {std::size_t{0}, std::size_t{7},
                            img.size() / 2, img.size() - 1})
        EXPECT_THROW(ckpt::Reader(img.substr(0, len), 0),
                     ckpt::Error);
}

TEST(CkptFormat, RejectsSectionNameMismatch)
{
    ckpt::Writer w;
    w.beginSection("alpha");
    w.u64(1);
    w.endSection();
    ckpt::Reader r(w.finish(0), 0);
    EXPECT_THROW(r.beginSection("beta"), ckpt::Error);
}

TEST(CkptFormat, RejectsUnderReadSection)
{
    ckpt::Writer w;
    w.beginSection("s");
    w.u64(1);
    w.u64(2);
    w.endSection();
    ckpt::Reader r(w.finish(0), 0);
    r.beginSection("s");
    r.u64();
    EXPECT_THROW(r.endSection(), ckpt::Error); // one u64 unread
}

TEST(CkptFormat, RejectsOverReadSection)
{
    ckpt::Writer w;
    w.beginSection("s");
    w.u64(1);
    w.endSection();
    ckpt::Reader r(w.finish(0), 0);
    r.beginSection("s");
    r.u64();
    EXPECT_THROW(r.u64(), ckpt::Error); // past the payload
}

TEST(CkptFormat, MissingFileThrows)
{
    EXPECT_THROW(
        ckpt::Reader::fromFile(tmpPath("no_such_ckpt.mitts"), 0),
        ckpt::Error);
}

TEST(CkptFormat, WriteFileIsAtomicAndReadable)
{
    const std::string path = tmpPath("ckpt_atomic_test.mitts");
    std::filesystem::remove(path);
    ckpt::Writer w;
    w.beginSection("s");
    w.u64(0xFEED);
    w.endSection();
    w.writeFile(path, 7);
    // No stray temp files next to the target.
    int siblings = 0;
    for (const auto &e : std::filesystem::directory_iterator(
             std::filesystem::temp_directory_path())) {
        const std::string n = e.path().filename().string();
        if (n.find("ckpt_atomic_test") != std::string::npos)
            ++siblings;
    }
    EXPECT_EQ(siblings, 1);
    ckpt::Reader r = ckpt::Reader::fromFile(path, 7);
    r.beginSection("s");
    EXPECT_EQ(r.u64(), 0xFEEDu);
    r.endSection();
    std::filesystem::remove(path);
}

TEST(CkptFormat, ConfigHashIgnoresKernelModeAndOutputPaths)
{
    SystemConfig cfg = SystemConfig::multiProgram({"gcc", "mcf"});
    const std::uint64_t base = ckpt::configHash(cfg);

    SystemConfig skip = cfg;
    skip.sim.skipAhead = !skip.sim.skipAhead;
    EXPECT_EQ(ckpt::configHash(skip), base)
        << "skip-ahead is bit-identical, so a skip checkpoint must "
           "restore into a --no-skip run and vice versa";

    SystemConfig outdir = cfg;
    outdir.telemetry.outDir = "/somewhere/else";
    EXPECT_EQ(ckpt::configHash(outdir), base);

    SystemConfig seeded = cfg;
    seeded.seed += 1;
    EXPECT_NE(ckpt::configHash(seeded), base);

    SystemConfig sched = cfg;
    sched.sched = SchedulerKind::Tcm;
    EXPECT_NE(ckpt::configHash(sched), base);
}

// --- event queue --------------------------------------------------------

TEST(CkptEventQueue, SameTickOrderSurvivesRoundTrip)
{
    EventQueue q;
    // Three same-tick events plus an earlier one, scheduled out of
    // order; descriptors carry the identity the factory needs.
    auto desc = [](SeqNum id) { return EventDesc::loadComplete(0, id); };
    q.schedule(5, [] {}, desc(10));
    q.schedule(5, [] {}, desc(11));
    q.schedule(3, [] {}, desc(12));
    q.schedule(5, [] {}, desc(13));

    ckpt::Writer w;
    w.beginSection("events");
    q.saveState(w);
    w.endSection();

    std::vector<SeqNum> fired;
    EventQueue q2;
    EventQueue::Factory factory =
        [&fired](const EventDesc &d, Tick) -> EventQueue::Callback {
        return [&fired, seq = d.seq] { fired.push_back(seq); };
    };
    ckpt::Reader r(w.finish(0), 0);
    r.beginSection("events");
    q2.loadState(r, factory);
    r.endSection();

    EXPECT_EQ(q2.size(), 4u);
    q2.runDue(10);
    EXPECT_EQ(fired, (std::vector<SeqNum>{12, 10, 11, 13}));
}

TEST(CkptEventQueue, OpaquePendingEventFailsSave)
{
    EventQueue q;
    q.schedule(4, [] {}); // no descriptor
    ckpt::Writer w;
    w.beginSection("events");
    EXPECT_THROW(q.saveState(w), ckpt::Error);
}

// --- full system --------------------------------------------------------

SystemConfig
ckptConfig()
{
    SystemConfig cfg = SystemConfig::multiProgram({"gcc", "mcf"});
    cfg.gate = GateKind::Mitts;
    cfg.seed = 2026;
    cfg.telemetry.enabled = true; // in-memory CSV (outDir empty)
    cfg.telemetry.sampleInterval = 2'000;
    cfg.telemetry.traceEvents = true;
    return cfg;
}

std::string
statsOf(System &sys)
{
    std::ostringstream os;
    sys.dumpStats(os);
    return os.str();
}

std::string
traceOf(System &sys)
{
    std::ostringstream os;
    if (sys.telemetry() && sys.telemetry()->trace())
        sys.telemetry()->trace()->write(os);
    return os.str();
}

/** Save at `save_cycles`, restore into a fresh system, run both to
 *  the same instruction target, and demand byte-identical output. */
void
expectBitIdenticalResume(const SystemConfig &cfg,
                         const std::string &tag)
{
    const std::uint64_t target = 20'000;
    const Tick slack = 10'000'000;
    const Tick save_cycles = 4'096;
    const std::string path = tmpPath("mitts_resume_" + tag + ".ckpt");

    // Reference: never interrupted.
    System ref(cfg);
    const auto ref_res = ref.runUntilInstructions(target, slack);
    ref.finalizeTelemetry();

    // Interrupted twin: identical batch boundaries, then a snapshot.
    System first(cfg);
    first.runUntilInstructions(target, save_cycles);
    first.saveCheckpoint(path);

    System resumed(cfg);
    resumed.restoreCheckpoint(path);
    EXPECT_EQ(resumed.sim().now(), save_cycles);
    const auto res = resumed.runUntilInstructions(target, slack);
    resumed.finalizeTelemetry();

    ASSERT_EQ(res.size(), ref_res.size());
    for (std::size_t a = 0; a < res.size(); ++a) {
        EXPECT_EQ(res[a].completedAt, ref_res[a].completedAt);
        EXPECT_EQ(res[a].instructions, ref_res[a].instructions);
        EXPECT_EQ(res[a].memStallCycles, ref_res[a].memStallCycles);
    }
    EXPECT_EQ(statsOf(resumed), statsOf(ref));
    EXPECT_EQ(resumed.telemetry()->csvText(),
              ref.telemetry()->csvText());
    EXPECT_EQ(traceOf(resumed), traceOf(ref));

    std::filesystem::remove(path);
}

TEST(CkptSystem, ResumeIsBitIdenticalWithSkipAhead)
{
    expectBitIdenticalResume(ckptConfig(), "skip");
}

TEST(CkptSystem, ResumeIsBitIdenticalNoSkip)
{
    SystemConfig cfg = ckptConfig();
    cfg.sim.skipAhead = false;
    expectBitIdenticalResume(cfg, "noskip");
}

TEST(CkptSystem, ResumeIsBitIdenticalAcrossSchedulers)
{
    for (SchedulerKind k : allSchedulers()) {
        SystemConfig cfg = ckptConfig();
        cfg.sched = k;
        expectBitIdenticalResume(cfg,
                                 "sched" + std::string(
                                               schedulerName(k)));
    }
}

TEST(CkptSystem, RestoreRequiresFreshSystem)
{
    const SystemConfig cfg = ckptConfig();
    const std::string path = tmpPath("mitts_fresh.ckpt");
    System a(cfg);
    a.run(256);
    a.saveCheckpoint(path);
    EXPECT_THROW(a.restoreCheckpoint(path), ckpt::Error);
    std::filesystem::remove(path);
}

TEST(CkptSystem, RejectsCheckpointFromDifferentConfig)
{
    SystemConfig cfg = ckptConfig();
    const std::string path = tmpPath("mitts_hash.ckpt");
    System a(cfg);
    a.run(256);
    a.saveCheckpoint(path);

    SystemConfig other = cfg;
    other.seed += 1;
    System b(other);
    EXPECT_THROW(b.restoreCheckpoint(path), ckpt::Error);
    std::filesystem::remove(path);
}

TEST(CkptSystem, RejectsCorruptedCheckpointFile)
{
    const SystemConfig cfg = ckptConfig();
    const std::string path = tmpPath("mitts_corrupt.ckpt");
    System a(cfg);
    a.run(1'024);
    a.saveCheckpoint(path);

    std::string img;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        img = buf.str();
    }
    ASSERT_GT(img.size(), 64u);

    // Flip one byte mid-file.
    std::string flipped = img;
    flipped[img.size() / 2] ^= 0x10;
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << flipped;
    }
    {
        System b(cfg);
        EXPECT_THROW(b.restoreCheckpoint(path), ckpt::Error);
    }

    // Truncate.
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << img.substr(0, img.size() / 3);
    }
    {
        System b(cfg);
        EXPECT_THROW(b.restoreCheckpoint(path), ckpt::Error);
    }
    std::filesystem::remove(path);
}

TEST(CkptSystem, CheckpointExtrasRideAlong)
{
    SystemConfig cfg = SystemConfig::singleProgram("gcc");
    cfg.gate = GateKind::Mitts;
    cfg.seed = 31;
    const std::string path = tmpPath("mitts_extras.ckpt");
    const std::uint64_t target = 12'000;

    auto makeSchedule = [&](const SystemConfig &c) {
        BinConfig p0(c.binSpec), p1(c.binSpec);
        p0.credits[0] = 9;
        p1.credits[9] = 17;
        PhaseSchedule s;
        s.core = 0;
        s.phaseInstructions = 3'000;
        s.configs = {p0, p1};
        return s;
    };

    // Reference: uninterrupted run with the switcher attached.
    System ref(cfg);
    PhaseSwitcher ref_sw("ps", ref, {makeSchedule(cfg)}, 100);
    ref.sim().add(&ref_sw);
    ref.runUntilInstructions(target, 10'000'000);

    System a(cfg);
    PhaseSwitcher sw_a("ps", a, {makeSchedule(cfg)}, 100);
    a.sim().add(&sw_a);
    a.addCheckpointExtra("phase-switcher", &sw_a);
    a.runUntilInstructions(target, 4'096);
    a.saveCheckpoint(path);

    System b(cfg);
    PhaseSwitcher sw_b("ps", b, {makeSchedule(cfg)}, 100);
    b.sim().add(&sw_b);
    b.addCheckpointExtra("phase-switcher", &sw_b);
    b.restoreCheckpoint(path);
    b.runUntilInstructions(target, 10'000'000);

    EXPECT_EQ(sw_b.switches(), ref_sw.switches());
    EXPECT_EQ(sw_b.currentPhase(0), ref_sw.currentPhase(0));
    EXPECT_EQ(statsOf(b), statsOf(ref));
    std::filesystem::remove(path);
}

TEST(CkptSystem, OnlineTunerRidesAlong)
{
    // Snapshot in the middle of the tuner's CONFIG_PHASE (GA
    // population, measurement bookkeeping, RNG mid-stream) and demand
    // the resumed run land on the same winner and the same stats.
    SystemConfig cfg = SystemConfig::multiProgram({"gcc", "mcf"});
    cfg.gate = GateKind::Mitts;
    cfg.seed = 404;
    const std::string path = tmpPath("mitts_tuner.ckpt");

    OnlineTunerOptions topts;
    topts.epochLength = 500;
    topts.population = 3;
    topts.generations = 2;

    System ref(cfg);
    OnlineTuner ref_t(ref, topts);
    ref.sim().add(&ref_t);
    ref.run(40'000);

    System a(cfg);
    OnlineTuner t_a(a, topts);
    a.sim().add(&t_a);
    a.addCheckpointExtra("tuner", &t_a);
    a.run(4'000); // mid-CONFIG_PHASE
    EXPECT_FALSE(t_a.inRunPhase());
    a.saveCheckpoint(path);

    System b(cfg);
    OnlineTuner t_b(b, topts);
    b.sim().add(&t_b);
    b.addCheckpointExtra("tuner", &t_b);
    b.restoreCheckpoint(path);
    b.run(36'000);

    EXPECT_TRUE(ref_t.inRunPhase());
    EXPECT_TRUE(t_b.inRunPhase());
    EXPECT_EQ(t_b.configPhasesRun(), ref_t.configPhasesRun());
    EXPECT_EQ(t_b.overheadApplied(), ref_t.overheadApplied());
    ASSERT_EQ(t_b.bestConfigs().size(), ref_t.bestConfigs().size());
    for (std::size_t c = 0; c < t_b.bestConfigs().size(); ++c)
        EXPECT_EQ(t_b.bestConfigs()[c].credits,
                  ref_t.bestConfigs()[c].credits);
    EXPECT_EQ(statsOf(b), statsOf(ref));
    std::filesystem::remove(path);
}

TEST(CkptSystem, MissingExtraSectionRejected)
{
    // A checkpoint with an extra section must not restore into a
    // system that forgot to register the extra.
    SystemConfig cfg = SystemConfig::singleProgram("gcc");
    cfg.gate = GateKind::Mitts;
    const std::string path = tmpPath("mitts_extra_missing.ckpt");

    auto sched = [&] {
        BinConfig p0(cfg.binSpec);
        PhaseSchedule s;
        s.core = 0;
        s.phaseInstructions = 3'000;
        s.configs = {p0};
        return s;
    }();

    System a(cfg);
    PhaseSwitcher sw_a("ps", a, {sched}, 100);
    a.sim().add(&sw_a);
    a.addCheckpointExtra("phase-switcher", &sw_a);
    a.run(512);
    a.saveCheckpoint(path);

    System b(cfg); // no extra registered
    EXPECT_THROW(b.restoreCheckpoint(path), ckpt::Error);
    std::filesystem::remove(path);
}

} // namespace
} // namespace mitts

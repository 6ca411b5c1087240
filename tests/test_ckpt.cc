/**
 * @file
 * Checkpoint/restore: format primitives, corruption rejection,
 * event-queue drain ordering, and full-system bit-identical resume.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "base/random.hh"
#include "ckpt/config_hash.hh"
#include "ckpt_edit.hh"
#include "ckpt/serialize.hh"
#include "sim/event_queue.hh"
#include "system/system.hh"
#include "trace/synth_trace.hh"
#include "tuner/online_tuner.hh"
#include "tuner/phase_switcher.hh"

namespace mitts
{
namespace
{

using namespace ckpt_edit;

std::string
tmpPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

// --- CRC-32 -------------------------------------------------------------

/** The bitwise CRC-32 (reflected 0xEDB88320, zlib convention): the
 *  reference the table-driven ckpt::crc32 must reproduce. */
std::uint32_t
bitwiseCrc32(const unsigned char *p, std::size_t len)
{
    std::uint32_t crc = ~0u;
    for (std::size_t i = 0; i < len; ++i) {
        crc ^= p[i];
        for (int k = 0; k < 8; ++k)
            crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
    return ~crc;
}

std::vector<unsigned char>
randomBytes(std::size_t n, std::uint64_t seed)
{
    Random rng(seed);
    std::vector<unsigned char> v(n);
    for (auto &b : v)
        b = static_cast<unsigned char>(rng.next());
    return v;
}

TEST(CkptCrc32, KnownAnswers)
{
    EXPECT_EQ(ckpt::crc32("", 0), 0u);
    EXPECT_EQ(ckpt::crc32("123456789", 9), 0xCBF43926u);
    std::vector<unsigned char> ramp(32);
    for (std::size_t i = 0; i < ramp.size(); ++i)
        ramp[i] = static_cast<unsigned char>(i);
    const std::vector<unsigned char> zeros(32, 0x00), ones(32, 0xFF);
    EXPECT_EQ(ckpt::crc32(zeros.data(), zeros.size()), 0x190A55ADu);
    EXPECT_EQ(ckpt::crc32(ones.data(), ones.size()), 0xFF6CAB0Bu);
    EXPECT_EQ(ckpt::crc32(ramp.data(), ramp.size()), 0x91267E8Au);
}

TEST(CkptCrc32, ContinuesAcrossCalls)
{
    EXPECT_EQ(ckpt::crc32("456789", 6, ckpt::crc32("123", 3)),
              0xCBF43926u);
}

TEST(CkptCrc32, MatchesBitwiseReference)
{
    // Every length up to 1 KiB at every alignment within a word.
    const auto buf = randomBytes(1'024 + 8, 0xC4C32);
    for (std::size_t off = 0; off < 8; ++off)
        for (std::size_t len = 0; len <= 1'024; ++len)
            ASSERT_EQ(ckpt::crc32(buf.data() + off, len),
                      bitwiseCrc32(buf.data() + off, len))
                << "offset " << off << " length " << len;

    // Every split point of a continued computation.
    const auto small = randomBytes(100, 0x5EED);
    const std::uint32_t whole = bitwiseCrc32(small.data(), small.size());
    for (std::size_t cut = 0; cut <= small.size(); ++cut)
        ASSERT_EQ(ckpt::crc32(small.data() + cut, small.size() - cut,
                              ckpt::crc32(small.data(), cut)),
                  whole)
            << "split at " << cut;

    const auto big = randomBytes(4u << 20, 0xB16);
    EXPECT_EQ(ckpt::crc32(big.data(), big.size()),
              bitwiseCrc32(big.data(), big.size()));
}

TEST(CkptCrc32, MatchesBitwiseReferenceAtEverySliceAlignment)
{
    // The kernel folds 16 bytes per step: every length up to 1,100 at
    // each of the 16 start offsets within a step.
    const auto buf = randomBytes(1'100 + 16, 0x16A1);
    for (std::size_t off = 0; off < 16; ++off)
        for (std::size_t len = 0; len <= 1'100; ++len)
            ASSERT_EQ(ckpt::crc32(buf.data() + off, len),
                      bitwiseCrc32(buf.data() + off, len))
                << "offset " << off << " length " << len;
}

TEST(CkptCrc32, CombineMatchesTheConcatenation)
{
    // ckpt::crc32 is the reference here (checked against the bitwise
    // loop above), so the splits can reach lengths of 2^18 bytes.
    const auto buf = randomBytes(1u << 18, 0xC0B1);
    auto crc = [&](std::size_t at, std::size_t len) {
        return ckpt::crc32(buf.data() + at, len);
    };
    Random rng(0x5EED5);
    for (int i = 0; i < 200; ++i) {
        const std::size_t len = rng.next() % (buf.size() + 1);
        const std::size_t cut = rng.next() % (len + 1);
        ASSERT_EQ(ckpt::crc32Combine(crc(0, cut), crc(cut, len - cut),
                                     len - cut),
                  crc(0, len))
            << "length " << len << " split at " << cut;
    }
    // Empty A, empty B, both empty.
    const std::uint32_t whole = crc(0, buf.size());
    EXPECT_EQ(ckpt::crc32Combine(0, whole, buf.size()), whole);
    EXPECT_EQ(ckpt::crc32Combine(whole, 0, 0), whole);
    EXPECT_EQ(ckpt::crc32Combine(0, 0, 0), 0u);
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

// reserve() on an absurd length read from a sealed section throws
// std::length_error (2^62 u64s) or std::bad_alloc (2^36), neither a
// ckpt::Error, so every vector reader must reject a length its
// section cannot hold before reserving.
TEST(CkptFormat, RejectsVectorLongerThanItsSection)
{
    for (const std::uint64_t n : {std::uint64_t{1} << 62,
                                  std::uint64_t{1} << 36}) {
        for (int kind = 0; kind < 4; ++kind) {
            ckpt::Writer w;
            w.beginSection("v");
            w.u64(n);
            w.u64(0); // a few payload bytes, far fewer than n elements
            w.endSection();
            ckpt::Reader r(w.finish(0), 0);
            r.beginSection("v");
            try {
                switch (kind) {
                  case 0: r.vecU32(); break;
                  case 1: r.vecU64(); break;
                  case 2: r.vecF64(); break;
                  default: r.vecBool(); break;
                }
                ADD_FAILURE() << "accepted length " << n << " kind "
                              << kind;
            } catch (const ckpt::Error &e) {
                EXPECT_NE(std::string(e.what()).find("declares a vector"),
                          std::string::npos)
                    << e.what();
            }
        }
    }
    // A length that exactly fills the section still reads.
    ckpt::Writer w;
    w.beginSection("v");
    w.vecBool({true, false, true});
    w.endSection();
    ckpt::Reader r(w.finish(0), 0);
    r.beginSection("v");
    EXPECT_EQ(r.vecBool().size(), 3u);
    r.endSection();
}

TEST(CkptFormat, MissingFileThrows)
{
    EXPECT_THROW(
        ckpt::Reader::fromFile(tmpPath("no_such_ckpt.mitts"), 0),
        ckpt::Error);
}

TEST(CkptFormat, DirectoryIsNotACheckpoint)
{
    const std::string dir = tmpPath("mitts_ckpt_dir_test");
    std::filesystem::create_directories(dir);
    try {
        ckpt::Reader::fromFile(dir, 0);
        ADD_FAILURE() << "a directory was read as a checkpoint";
    } catch (const ckpt::Error &e) {
        EXPECT_NE(std::string(e.what()).find("not a regular file"),
                  std::string::npos)
            << e.what();
    }
    std::filesystem::remove_all(dir);
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

/** Records the request seq of every fired event. */
struct SeqRecorder : public EventHandler
{
    void
    fire(const EventDesc &d, Tick) override
    {
        fired.push_back(d.req->seq);
    }
    std::vector<SeqNum> fired;
};

/** Arena the test events' requests (and restored copies) live in. */
RequestPool &
eventPool()
{
    static RequestPool pool;
    return pool;
}

/** A test event identified by `id` (carried as its request's seq). */
EventDesc
eventWithId(SeqNum id)
{
    return EventDesc::memComplete(
        eventPool().make(id, 0, MemOp::Read, 0, 0));
}

/** Save `q`, restore into a fresh queue firing into `into`. */
std::unique_ptr<EventQueue>
roundTrip(EventQueue &q, EventHandler &into)
{
    ckpt::Writer w;
    w.beginSection("events");
    ckpt::Archive save(w);
    q.checkpoint(save);
    w.endSection();
    auto q2 = std::make_unique<EventQueue>();
    q2->setHandler(&into);
    ckpt::Reader r(w.finish(0), 0);
    r.bindPool(eventPool());
    r.beginSection("events");
    ckpt::Archive load(r);
    q2->checkpoint(load);
    r.endSection();
    return q2;
}

TEST(CkptEventQueue, SameTickOrderSurvivesRoundTrip)
{
    EventQueue q;
    // Three same-tick events plus an earlier one, scheduled out of
    // order; descriptors carry the identity the handler sees.
    auto desc = eventWithId;
    q.schedule(5, desc(10));
    q.schedule(5, desc(11));
    q.schedule(3, desc(12));
    q.schedule(5, desc(13));

    SeqRecorder h;
    auto q2 = roundTrip(q, h);
    EXPECT_EQ(q2->size(), 4u);
    q2->runDue(10);
    EXPECT_EQ(h.fired, (std::vector<SeqNum>{12, 10, 11, 13}));
}

TEST(CkptEventQueue, FarEventsSurviveRoundTrip)
{
    // Far events (beyond the calendar window) share ticks with near
    // ones; the restored queue drains exactly like the original.
    auto desc = eventWithId;
    auto fill = [&](EventQueue &q) {
        const Tick t = 2 * EventQueue::kWindow + 7;
        q.schedule(t, desc(1));
        q.schedule(9 * EventQueue::kWindow, desc(2));
        q.schedule(t, desc(3));
        q.schedule(40, desc(4));
        q.runDue(30);
        q.schedule(t, desc(5)); // still far
        q.runDue(t - 20);      // t is now inside the window
        q.schedule(t, desc(6));
        q.schedule(t + EventQueue::kWindow, desc(7)); // far
    };
    SeqRecorder ref_h;
    EventQueue ref;
    ref.setHandler(&ref_h);
    fill(ref);

    SeqRecorder h;
    EventQueue q;
    q.setHandler(&h);
    fill(q);
    auto q2 = roundTrip(q, h);
    ASSERT_EQ(q2->size(), ref.size());
    EXPECT_EQ(q2->nextEventTick(), ref.nextEventTick());
    ref.runDue(10 * EventQueue::kWindow);
    q2->runDue(10 * EventQueue::kWindow);
    EXPECT_EQ(h.fired, ref_h.fired);
    EXPECT_EQ(h.fired, (std::vector<SeqNum>{4, 1, 3, 5, 6, 7, 2}));
}

/** An image whose one section, "events", holds one event. */
std::string
oneEventPayload(Tick horizon, Tick when, std::uint8_t kind)
{
    ckpt::Writer w;
    w.beginSection("events");
    w.u64(horizon);
    w.u64(1);
    w.u64(when);
    w.u8(kind);
    w.request(ReqPtr{});
    w.endSection();
    return w.finish(0);
}

TEST(CkptEventQueue, OutOfRangeKindByteFailsLoad)
{
    // Byte 1 names no kind: an L1 hit is not an event.
    for (const std::uint8_t kind : {std::uint8_t{0}, std::uint8_t{1},
                                    std::uint8_t{4}, std::uint8_t{255}}) {
        SeqRecorder h;
        EventQueue q;
        q.setHandler(&h);
        ckpt::Reader r(oneEventPayload(10, 12, kind), 0);
        r.beginSection("events");
        ckpt::Archive load(r);
        EXPECT_THROW(q.checkpoint(load), ckpt::Error) << int{kind};
        EXPECT_TRUE(q.empty());
    }
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

// The Reader checks a good image in one pass and reruns the two-pass
// order (whole-image CRC, then framing and section CRCs) only when
// that pass fails. So every corrupt image must still fail, with the
// two-pass verdict: a flip in the magic, version or config hash names
// that field, and any other flip breaks the whole-image CRC first.
// Flipped: every header and framing byte of a small System image, the
// file CRC, and a seeded sample of payload bytes.
TEST(CkptSystem, EveryFlippedByteFailsWithTheTwoPassVerdict)
{
    SystemConfig cfg = SystemConfig::singleProgram("mcf");
    cfg.gate = GateKind::Mitts;
    cfg.seed = 7;
    const std::string path = tmpPath("mitts_flip.ckpt");
    System sys(cfg);
    sys.run(2'048);
    sys.saveCheckpoint(path);
    const std::string img = readFile(path);
    std::filesystem::remove(path);
    const std::uint64_t hash = sys.checkpointHash();
    ASSERT_NO_THROW(ckpt::Reader(img, hash));

    const std::size_t header = sizeof(ckpt::kMagic) + 4 + 8 + 4;
    std::vector<std::size_t> flips;
    for (std::size_t i = 0; i < header; ++i)
        flips.push_back(i);
    Random rng(0xF11B);
    std::size_t off = header;
    std::vector<std::pair<std::string, std::size_t>> payloads;
    const std::size_t count = getLe(img, header - 4, 4);
    for (std::size_t s = 0; s < count; ++s) {
        const std::size_t name_len = getLe(img, off, 4);
        const std::size_t payload = off + 12 + name_len;
        const std::size_t len = getLe(img, payload - 8, 8);
        if (len > 0)
            payloads.emplace_back(img.substr(off + 4, name_len), payload);
        for (std::size_t i = off; i < payload; ++i)
            flips.push_back(i);
        for (int k = 0; k < 8 && len > 0; ++k)
            flips.push_back(payload + rng.next() % len);
        for (std::size_t i = 0; i < 4; ++i)
            flips.push_back(payload + len + i);
        off = payload + len + 4;
    }
    ASSERT_EQ(off + 4, img.size());
    for (std::size_t i = off; i < img.size(); ++i)
        flips.push_back(i);

    auto expectVerdict = [&](const std::string &bad, const std::string &what,
                             const std::string &where) {
        try {
            ckpt::Reader r(bad, hash);
            ADD_FAILURE() << where << ": image accepted";
        } catch (const ckpt::Error &e) {
            EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
                << where << ": " << e.what();
        }
    };
    auto twoPassVerdict = [](std::size_t i) {
        if (i < 8)
            return "bad checkpoint magic";
        if (i < 12)
            return "unsupported checkpoint format version";
        if (i < 20)
            return "config hash mismatch";
        return "checkpoint file CRC mismatch";
    };
    for (std::size_t i : flips) {
        std::string bad = img;
        bad[i] = static_cast<char>(bad[i] ^ (1 + rng.next() % 255));
        expectVerdict(bad, twoPassVerdict(i), "byte " + std::to_string(i));
    }

    // With the file CRC re-sealed, the framing and the section CRCs
    // give the verdict.
    auto resealed = [](std::string bad) {
        putLe(bad, bad.size() - 4,
              ckpt::crc32(bad.data(), bad.size() - 4), 4);
        return bad;
    };
    for (const auto &[name, payload] : payloads) {
        std::string bad = img;
        bad[payload] ^= 0x40;
        expectVerdict(resealed(bad),
                      "CRC mismatch in section '" + name + "'",
                      "section " + name);
    }
    std::string more = img, fewer = img;
    putLe(more, header - 4, count + 1, 4);
    putLe(fewer, header - 4, count - 1, 4);
    expectVerdict(resealed(more), "truncated in section table",
                  "one section too many");
    expectVerdict(resealed(fewer), "trailing bytes after", "one too few");
}

// --- corrupted fixed-size state ---------------------------------------
//
// The image is re-sealed after each edit (both CRC layers), so these
// reach the component checks behind the format's own validation.

/** Restoring `path` into `sys` throws one ckpt::Error whose message
 *  contains `what`. */
void
expectRestoreError(System &sys, const std::string &path,
                   const std::string &what)
{
    try {
        sys.restoreCheckpoint(path);
        ADD_FAILURE() << "restore accepted a checkpoint with: " << what;
    } catch (const ckpt::Error &e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
    }
}

class CkptCorrupt : public ::testing::Test
{
  protected:
    CkptCorrupt() : cfg_(ckptConfig())
    {
        System a(cfg_);
        a.run(1'024);
        a.saveCheckpoint(path_);
        image_ = readFile(path_);
    }

    ~CkptCorrupt() override { std::filesystem::remove(path_); }

    /** Restoring `img` into a fresh System throws one ckpt::Error
     *  whose message contains `what`. */
    void
    expectRejected(const std::string &img, const std::string &what)
    {
        writeFile(path_, img);
        System b(cfg_);
        expectRestoreError(b, path_, what);
    }

    /** The image with `width` bytes at `off` in the shapers section
     *  set to `v`. */
    std::string
    withShaperField(std::size_t off, std::size_t width, std::uint64_t v)
    {
        return editSection(image_, "shapers", [&](std::string &p) {
            putLe(p, off, v, width);
        });
    }

    /** The image with its events section replaced by one event. */
    std::string
    withOneEvent(std::int64_t when_delta, std::uint8_t kind)
    {
        return editSection(image_, "events", [&](std::string &p) {
            const Tick horizon = getLe(p, 0, 8);
            const Tick when = static_cast<Tick>(
                static_cast<std::int64_t>(horizon) + when_delta);
            p = payloadOf(oneEventPayload(horizon, when, kind),
                          "events");
        });
    }

    SystemConfig cfg_;
    // One file per test: ctest runs the cases as parallel processes.
    std::string path_ = tmpPath(
        std::string("mitts_corrupt_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".ckpt");
    std::string image_;
};

TEST_F(CkptCorrupt, UntouchedImageRestores)
{
    System b(cfg_);
    EXPECT_NO_THROW(b.restoreCheckpoint(path_));
}

// Core 0's window leads the "cores" section: u64 count, then
// (u64 seq, u64 readyAt, u8 isMem) per entry.
TEST_F(CkptCorrupt, RejectsOverfullCoreWindow)
{
    expectRejected(editSection(image_, "cores",
                               [&](std::string &p) {
                                   putLe(p, 0, cfg_.core.windowSize + 1,
                                         8);
                               }),
                   "more than its");
}

TEST_F(CkptCorrupt, RejectsNonConsecutiveWindowSeqs)
{
    const std::size_t n = getLe(payloadOf(image_, "cores"), 0, 8);
    ASSERT_GE(n, 2u);
    expectRejected(editSection(image_, "cores",
                               [&](std::string &p) {
                                   putLe(p, 25, getLe(p, 25, 8) + 1, 8);
                               }),
                   "not consecutive");
    // The u64 after the window is nextSeq, which must follow the tail.
    const std::size_t next_seq = 8 + 17 * n;
    expectRejected(editSection(image_, "cores",
                               [&](std::string &p) {
                                   putLe(p, next_seq,
                                         getLe(p, next_seq, 8) + 1, 8);
                               }),
                   "does not end at the next seq");
}

// The "l1s" section opens with L1 0's tag array (u64 sets, u64 assoc,
// 18 bytes per line, u64 use clock), then its MSHR file: u64 count and
// per entry u8 valid, u64 block, u8 storeSeen, u64 allocatedAt and the
// waiting-load seqs as a u64 count plus u64s. A waiter that names no
// load waiting in core 0's window must fail the restore; accepted, it
// would abort the run when its fill arrives.
TEST_F(CkptCorrupt, RejectsMshrWaiterOutsideTheWindow)
{
    const std::string l1s = payloadOf(image_, "l1s");
    std::size_t off =
        16 + 18 * getLe(l1s, 0, 8) * getLe(l1s, 8, 8) + 8;
    const std::size_t entries = getLe(l1s, off, 8);
    off += 8;
    std::size_t waiter = 0;
    for (std::size_t e = 0; e < entries && waiter == 0; ++e) {
        const bool valid = l1s[off] != 0;
        const std::size_t waiting = getLe(l1s, off + 18, 8);
        if (valid && waiting > 0)
            waiter = off + 26;
        off += 26 + 8 * waiting;
    }
    ASSERT_NE(waiter, 0u) << "core 0 has no load waiting on a fill";
    expectRejected(editSection(image_, "l1s",
                               [&](std::string &p) {
                                   putLe(p, waiter, 999'999'999, 8);
                               }),
                   "MSHR waits for seq 999999999");
}

TEST_F(CkptCorrupt, RejectsOutOfRangeEventKind)
{
    expectRejected(withOneEvent(5, 0), "event kind 0 out of range");
    expectRejected(withOneEvent(5, 1), "event kind 1 out of range");
    expectRejected(withOneEvent(5, 4), "event kind 4 out of range");
}

TEST_F(CkptCorrupt, RejectsFillWithoutRequest)
{
    expectRejected(withOneEvent(5, 2), "fill event request invalid");
}

TEST_F(CkptCorrupt, RejectsCompletionWithoutRequest)
{
    expectRejected(withOneEvent(5, 3),
                   "completion event without request");
}

TEST_F(CkptCorrupt, RejectsEventBeforeHorizon)
{
    expectRejected(withOneEvent(-1, 3), "drain horizon");
}

// The "shapers" section: u64 shaper count, then core 0's shaper,
// which opens with its bin config (loadBinConfig): u64 numBins,
// intervalLength, replenishPeriod and maxCredits, the u8 policy, then
// the credits. Each edit below used to reach a panic or a later
// division by zero instead of a load error.
TEST_F(CkptCorrupt, RejectsShaperCreditCountMismatch)
{
    expectRejected(withShaperField(8, 8, 9), "10 credits for 9 bins");
}

TEST_F(CkptCorrupt, RejectsShaperZeroIntervalLength)
{
    expectRejected(withShaperField(16, 8, 0), "zero interval length");
}

TEST_F(CkptCorrupt, RejectsShaperZeroReplenishPeriod)
{
    expectRejected(withShaperField(24, 8, 0), "zero replenish period");
}

TEST_F(CkptCorrupt, RejectsShaperUnknownReplenishPolicy)
{
    expectRejected(withShaperField(40, 1, 2),
                   "unknown replenish policy 2");
}

TEST_F(CkptCorrupt, RejectsShaperWithMoreThan64Bins)
{
    expectRejected(withShaperField(8, 8, 65), "65 bins (want 1..64)");
}

// After core 0's window (u64 count, 17 bytes per entry): u64 nextSeq,
// f64 budget, three u64 seq/stall fields, the pending op (u64 gap,
// two flags, u64 addr), its flag at +58, the u64 gap left at +59,
// u64 stallUntil, the halted flag and the idle byte at +76. An idle
// byte past the last state and a gap wider than its 32-bit field used
// to be accepted (the gap silently truncated).
TEST_F(CkptCorrupt, RejectsOutOfRangeCoreIdleState)
{
    const std::size_t tail =
        8 + 17 * getLe(payloadOf(image_, "cores"), 0, 8);
    expectRejected(editSection(image_, "cores",
                               [&](std::string &p) {
                                   putLe(p, tail + 76, 9, 1);
                               }),
                   "core idle state 9 out of range");
}

TEST_F(CkptCorrupt, RejectsCoreGapWiderThan32Bits)
{
    const std::size_t tail =
        8 + 17 * getLe(payloadOf(image_, "cores"), 0, 8);
    expectRejected(editSection(image_, "cores",
                               [&](std::string &p) {
                                   putLe(p, tail + 59, 1ull << 32, 8);
                               }),
                   "core gap 4294967296 out of range");
}

// The DRAM walk sits inside the "mc" section, behind the queued
// requests: u64 bank count, 33 bytes per bank, u64 bus-free tick, the
// four-entry activate ring as a u64 vector, then the u64 ring head,
// which indexes the ring on every activate check.
TEST_F(CkptCorrupt, RejectsDramActivateRingHeadPastTheRing)
{
    System a(cfg_);
    a.run(1'024);
    ckpt::Writer w;
    w.beginSection("dram");
    a.memController().dram(0).saveState(w);
    w.endSection();
    const std::string dram = payloadOf(w.finish(0), "dram");
    const std::size_t at = payloadOf(image_, "mc").find(dram);
    ASSERT_NE(at, std::string::npos);
    const std::size_t head = at + 8 + 33 * getLe(dram, 0, 8) + 8 + 40;
    ASSERT_EQ(getLe(dram, head - at - 40, 8), 4u) << "no activate ring";
    expectRejected(editSection(image_, "mc",
                               [&](std::string &p) {
                                   putLe(p, head, 4, 8);
                               }),
                   "DRAM activate ring head 4 out of range");
}

// Core 0's shaper, after its bin config (see above; credits as a u32
// vector at 41): the enabled flag, the credit and effective-credit
// u32 vectors, the u64 rolling remainders, f64 congestion scale, three
// u64 ticks, then the pending-bin map (u64 count, then u64 key and
// u64 bin per entry). A refund on an LLC hit indexes the credits with
// the bin; the edit adds one entry naming a bin past the last.
TEST_F(CkptCorrupt, RejectsShaperPendingBinPastTheLastBin)
{
    const std::string p = payloadOf(image_, "shapers");
    const std::size_t bins = getLe(p, 8, 8);
    const std::size_t map =
        41 + 3 * (8 + 4 * bins) + 1 + (8 + 8 * bins) + 32;
    ASSERT_EQ(getLe(p, 41, 8), bins);
    auto addEntry = [&](std::string &q) {
        std::string entry(16, '\0'); // key 0
        putLe(entry, 8, bins, 8);
        putLe(q, map, getLe(q, map, 8) + 1, 8);
        q.insert(map + 8, entry);
    };
    expectRejected(editSection(image_, "shapers", addEntry),
                   "shaper pending bin " + std::to_string(bins) +
                       " out of range");
}

// FST keeps one throttle-level index per core into its level table.
// Its "sched" section for two cores: the i64 boosted core, the
// estimator (i64 measured core, u64 epoch start, five per-core
// vectors), the levels as an f64 vector, then the u64 index count and
// one i64 index per core.
TEST(CkptCorruptFst, RejectsThrottleLevelPastTheLevelTable)
{
    SystemConfig cfg = SystemConfig::multiProgram({"gcc", "mcf"});
    cfg.sched = SchedulerKind::Fst;
    cfg.seed = 2026;
    const std::string path = tmpPath("mitts_corrupt_fst.ckpt");
    System a(cfg);
    a.run(1'024);
    a.saveCheckpoint(path);
    const std::string img = readFile(path);

    const std::size_t vec = 8 + 8 * 2;
    const std::size_t levels = 8 + 16 + 5 * vec;
    const std::size_t core1 = levels + vec + 8 + 8;
    const std::string p = payloadOf(img, "sched");
    ASSERT_EQ(getLe(p, levels, 8), 2u);
    ASSERT_EQ(getLe(p, levels + vec, 8), 2u);
    auto edit = [&](std::string &q) { putLe(q, core1, 1'000, 8); };
    writeFile(path, editSection(img, "sched", edit));
    System b(cfg);
    expectRestoreError(b, path, "fst throttle level 1000 out of range");
    std::filesystem::remove(path);
}

// --- corrupted online-tuner state -------------------------------------
//
// The tuner indexes its per-core vectors by the boosted core and its
// population by the child index; a restored index outside them used
// to be accepted and read out of bounds at the next epoch end.

class CkptCorruptTuner : public ::testing::Test
{
  protected:
    CkptCorruptTuner()
    {
        cfg_ = SystemConfig::multiProgram({"gcc", "mcf"});
        cfg_.gate = GateKind::Mitts;
        cfg_.seed = 404;
        opts_.epochLength = 500;
        opts_.population = 3;
        opts_.generations = 2;
    }

    ~CkptCorruptTuner() override { std::filesystem::remove(path_); }

    /** The tuner's section payload after `cycles`, saved to path_. */
    std::string
    saveAt(Tick cycles)
    {
        System a(cfg_);
        OnlineTuner t(a, opts_);
        a.sim().add(&t);
        a.addCheckpointExtra("tuner", &t);
        a.run(cycles);
        a.saveCheckpoint(path_);
        image_ = readFile(path_);
        return payloadOf(image_, "extra.tuner");
    }

    /** Restoring image_ with its tuner section edited by `edit`
     *  throws one ckpt::Error whose message contains `what`. */
    void
    expectRejected(const std::function<void(std::string &)> &edit,
                   const std::string &what)
    {
        writeFile(path_, editSection(image_, "extra.tuner", edit));
        System b(cfg_);
        OnlineTuner t(b, opts_);
        b.sim().add(&t);
        b.addCheckpointExtra("tuner", &t);
        expectRestoreError(b, path_, what);
    }

    // The tuner section: four u64 RNG words, the u8 state at 32, three
    // u64s, the i64 boosted core at 57, then four per-core vectors,
    // the u64 epoch start, the u64 measure-epoch count, the population
    // (u64 count, then each genome as a u32 vector) and the fitness
    // vector before the u64 child index.
    static constexpr std::size_t kStateAt = 32;
    static constexpr std::size_t kBoostedAt = 57;

    static std::size_t
    measureEpochsAt(const std::string &p)
    {
        std::size_t off = kBoostedAt + 8;
        for (int v = 0; v < 4; ++v)
            off += 8 + 8 * getLe(p, off, 8);
        return off + 8;
    }

    static std::size_t
    childIdxAt(const std::string &p)
    {
        std::size_t off = measureEpochsAt(p) + 8;
        const std::size_t pop = getLe(p, off, 8);
        off += 8;
        for (std::size_t g = 0; g < pop; ++g)
            off += 8 + 4 * getLe(p, off, 8);
        return off + 8 + 8 * getLe(p, off, 8);
    }

    SystemConfig cfg_;
    OnlineTunerOptions opts_;
    std::string path_ = tmpPath(
        std::string("mitts_corrupt_tuner_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".ckpt");
    std::string image_;
};

TEST_F(CkptCorruptTuner, RejectsBoostedCoreOutsideTheSystem)
{
    const std::string p = saveAt(700); // the second Measure epoch
    ASSERT_EQ(getLe(p, kStateAt, 1), 0u) << "not mid-Measure";
    ASSERT_EQ(getLe(p, kBoostedAt, 8), 1u);
    expectRejected([](std::string &q) { putLe(q, kBoostedAt, 99, 8); },
                   "online tuner boosted core is not a core");
}

TEST_F(CkptCorruptTuner, RejectsChildIndexOutsideThePopulation)
{
    const std::string p = saveAt(4'000); // OnlineTunerRidesAlong's cut
    ASSERT_EQ(getLe(p, kStateAt, 1), 1u) << "not mid-Eval";
    const std::size_t at = childIdxAt(p);
    ASSERT_LT(getLe(p, at, 8), opts_.population);
    expectRejected([&](std::string &q) { putLe(q, at, 99, 8); },
                   "online tuner child index is outside its population");
}

// Mid-Measure the boosted core plus the epochs left equals the core
// count. A larger count used to restore, and the next epoch end then
// boosted a core past the last one (an uncaught std::out_of_range).
TEST_F(CkptCorruptTuner, RejectsMeasureEpochCountPastTheLastCore)
{
    const std::string p = saveAt(700);
    ASSERT_EQ(getLe(p, kStateAt, 1), 0u) << "not mid-Measure";
    const std::size_t at = measureEpochsAt(p);
    ASSERT_EQ(getLe(p, kBoostedAt, 8) + getLe(p, at, 8), 2u);
    expectRejected([&](std::string &q) { putLe(q, at, 50, 8); },
                   "online tuner measure-epoch count does not match "
                   "its boosted core");
}

// Restore then save at once must reproduce the image byte for byte:
// every field the codec writes, it reads back unchanged.
TEST(CkptSystem, ResaveAfterRestoreIsByteIdentical)
{
    SystemConfig cfg = ckptConfig();
    cfg.sched = SchedulerKind::Tcm;
    const std::string first = tmpPath("mitts_resave_a.ckpt");
    const std::string second = tmpPath("mitts_resave_b.ckpt");

    System a(cfg);
    a.runUntilInstructions(20'000, 4'096);
    a.saveCheckpoint(first);

    System b(cfg);
    b.restoreCheckpoint(first);
    b.saveCheckpoint(second);

    const std::string img = readFile(first);
    ASSERT_GT(img.size(), 64u);
    EXPECT_TRUE(img == readFile(second))
        << "re-saved image differs from the one it was restored from";
    std::filesystem::remove(first);
    std::filesystem::remove(second);
}

// Restore then save at once, for every class with a checkpoint walk:
// the one walk runs both directions, so a saving() branch that drifts
// from its restore branch re-saves a different image. Each row builds
// one configuration, cuts it mid-run and demands the re-saved image be
// the one restored.

PhaseSchedule
twoPhaseSchedule(const SystemConfig &cfg)
{
    BinConfig p0(cfg.binSpec), p1(cfg.binSpec);
    p0.credits[0] = 9;
    p1.credits[9] = 17;
    PhaseSchedule s;
    s.core = 0;
    s.phaseInstructions = 3'000;
    s.configs = {p0, p1};
    return s;
}

/** A system plus, optionally, the online tuner and phase switcher
 *  registered as checkpoint extras. */
struct ResaveRig
{
    ResaveRig(const SystemConfig &cfg, bool extras) : sys(cfg)
    {
        if (!extras)
            return;
        OnlineTunerOptions topts;
        topts.epochLength = 500;
        topts.population = 3;
        topts.generations = 2;
        tuner = std::make_unique<OnlineTuner>(sys, topts);
        sys.sim().add(tuner.get());
        sys.addCheckpointExtra("tuner", tuner.get());
        switcher = std::make_unique<PhaseSwitcher>(
            "ps", sys, std::vector<PhaseSchedule>{twoPhaseSchedule(cfg)},
            100);
        sys.sim().add(switcher.get());
        sys.addCheckpointExtra("phase-switcher", switcher.get());
    }

    System sys;
    std::unique_ptr<OnlineTuner> tuner;
    std::unique_ptr<PhaseSwitcher> switcher;
};

TEST(CkptSystem, ResaveIsByteIdenticalForEveryWalk)
{
    struct Row
    {
        std::string name;
        SystemConfig cfg;
        bool extras = false;
    };
    const SystemConfig mix = SystemConfig::multiProgram({"gcc", "mcf"});
    std::vector<Row> rows;
    // FST's gates and estimator, MISE's estimator, MemGuard's
    // controller section and every scheduler's own state.
    for (SchedulerKind k : allSchedulers()) {
        Row r{"sched-" + std::string(schedulerName(k)), mix};
        r.cfg.sched = k;
        rows.push_back(r);
    }
    Row gate{"static-gate", mix};
    gate.cfg.gate = GateKind::Static;
    gate.cfg.staticIntervals = {200.0, 300.0};
    rows.push_back(gate);
    Row shared{"shared-app-shaper", SystemConfig{}};
    shared.cfg.apps = {"x264"}; // four threads, phased profile
    shared.cfg.gate = GateKind::Mitts;
    shared.cfg.sharedShaperPerApp = true;
    rows.push_back(shared);
    Row rolling{"rolling", mix};
    rolling.cfg.gate = GateKind::Mitts;
    rolling.cfg.binSpec.policy = ReplenishPolicy::Rolling;
    rows.push_back(rolling);
    Row congestion{"congestion", mix};
    congestion.cfg.gate = GateKind::Mitts;
    congestion.cfg.congestionFeedback = true;
    rows.push_back(congestion);
    Row noc{"noc", mix};
    noc.cfg.noc.enabled = true;
    noc.cfg.noc.width = noc.cfg.noc.height = 2;
    rows.push_back(noc);
    // A two-window ring flushes CSV rows before the cut, so the
    // restore replays a non-empty CSV prefix.
    Row telemetry{"telemetry-trace-events", ckptConfig()};
    telemetry.cfg.telemetry.ringWindows = 2;
    rows.push_back(telemetry);
    Row extras{"tuner-and-switcher", mix, true};
    extras.cfg.gate = GateKind::Mitts;
    rows.push_back(extras);
    Row scripted{"scripted-trace", mix};
    scripted.cfg.traceFactory = [](CoreId, unsigned, const AppProfile &,
                                   Addr base, std::uint64_t, unsigned)
        -> std::unique_ptr<TraceSource> {
        return std::make_unique<ScriptedTrace>(std::vector<TraceOp>{
            {3, false, false, base}, {0, true, true, base + 4096}});
    };
    rows.push_back(scripted);

    const std::string first = tmpPath("mitts_resave_row_a.ckpt");
    const std::string second = tmpPath("mitts_resave_row_b.ckpt");
    for (const Row &row : rows) {
        ResaveRig a(row.cfg, row.extras);
        a.sys.run(5'000);
        a.sys.saveCheckpoint(first);

        ResaveRig b(row.cfg, row.extras);
        b.sys.restoreCheckpoint(first);
        b.sys.saveCheckpoint(second);

        const std::string img = readFile(first);
        ASSERT_GT(img.size(), 64u) << row.name;
        EXPECT_TRUE(img == readFile(second))
            << row.name << ": re-saved image differs";
    }
    std::filesystem::remove(first);
    std::filesystem::remove(second);
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

// The phase switcher's section: u64 schedule count, then the u64
// phase applied per schedule (~0u before the first check), which
// currentPhase reports for its core.
TEST(CkptCorruptPhaseSwitcher, RejectsPhaseOutsideItsSchedule)
{
    SystemConfig cfg = SystemConfig::singleProgram("gcc");
    cfg.gate = GateKind::Mitts;
    cfg.seed = 31;
    const std::string path = tmpPath("mitts_corrupt_phase.ckpt");
    auto rig = [&](System &sys, PhaseSwitcher &sw) {
        sys.sim().add(&sw);
        sys.addCheckpointExtra("phase-switcher", &sw);
    };
    System a(cfg);
    PhaseSwitcher sw_a("ps", a, {twoPhaseSchedule(cfg)}, 100);
    rig(a, sw_a);
    a.run(4'096);
    a.saveCheckpoint(path);
    const std::string img = readFile(path);
    const std::string p = payloadOf(img, "extra.phase-switcher");
    ASSERT_EQ(getLe(p, 0, 8), 1u);
    ASSERT_LT(getLe(p, 8, 8), 2u);

    auto edit = [](std::string &q) { putLe(q, 8, 1'000, 8); };
    writeFile(path, editSection(img, "extra.phase-switcher", edit));
    System b(cfg);
    PhaseSwitcher sw_b("ps", b, {twoPhaseSchedule(cfg)}, 100);
    rig(b, sw_b);
    expectRestoreError(b, path,
                       "phase switcher phase is not a phase of its "
                       "schedule");
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

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
roundTrip(const EventQueue &q, EventHandler &into)
{
    ckpt::Writer w;
    w.beginSection("events");
    q.saveState(w);
    w.endSection();
    auto q2 = std::make_unique<EventQueue>();
    q2->setHandler(&into);
    ckpt::Reader r(w.finish(0), 0);
    r.bindPool(eventPool());
    r.beginSection("events");
    q2->loadState(r);
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
        EXPECT_THROW(q.loadState(r), ckpt::Error) << int{kind};
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

// --- corrupted fixed-size state ---------------------------------------
//
// The image is re-sealed after each edit (both CRC layers), so these
// reach the component checks behind the format's own validation.

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::uint64_t
getLe(const std::string &s, std::size_t off, std::size_t n)
{
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i)
        v |= std::uint64_t{static_cast<unsigned char>(s[off + i])}
             << (8 * i);
    return v;
}

void
putLe(std::string &s, std::size_t off, std::uint64_t v, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        s[off + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

/** Apply `edit` to section `name`'s payload in checkpoint image
 *  `img` and re-seal the section and file CRCs. */
std::string
editSection(const std::string &img, const std::string &name,
            const std::function<void(std::string &)> &edit)
{
    const std::size_t header = sizeof(ckpt::kMagic) + 4 + 8;
    std::string out = img.substr(0, header + 4);
    const std::size_t count = getLe(img, header, 4);
    std::size_t off = header + 4;
    bool found = false;
    for (std::size_t s = 0; s < count; ++s) {
        const std::size_t name_len = getLe(img, off, 4);
        const std::string sec = img.substr(off + 4, name_len);
        const std::size_t len = getLe(img, off + 4 + name_len, 8);
        std::string payload = img.substr(off + 12 + name_len, len);
        if (sec == name) {
            edit(payload);
            found = true;
        }
        std::string rec(12 + name_len, '\0');
        putLe(rec, 0, name_len, 4);
        rec.replace(4, name_len, sec);
        putLe(rec, 4 + name_len, payload.size(), 8);
        out += rec + payload;
        std::string crc(4, '\0');
        putLe(crc, 0, ckpt::crc32(payload.data(), payload.size()), 4);
        out += crc;
        off += 12 + name_len + len + 4;
    }
    EXPECT_TRUE(found) << "no section " << name;
    std::string crc(4, '\0');
    putLe(crc, 0, ckpt::crc32(out.data(), out.size()), 4);
    return out + crc;
}

/** The payload of section `name` in a finished Writer image. */
std::string
payloadOf(const std::string &img, const std::string &name)
{
    std::string payload;
    editSection(img, name, [&](std::string &p) { payload = p; });
    return payload;
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
        {
            std::ofstream out(path_, std::ios::binary | std::ios::trunc);
            out << img;
        }
        System b(cfg_);
        try {
            b.restoreCheckpoint(path_);
            ADD_FAILURE() << "restore accepted a checkpoint with: "
                          << what;
        } catch (const ckpt::Error &e) {
            EXPECT_NE(std::string(e.what()).find(what),
                      std::string::npos)
                << e.what();
        }
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

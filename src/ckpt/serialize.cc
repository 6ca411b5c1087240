#include "ckpt/serialize.hh"

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "base/stats.hh"

namespace mitts::ckpt
{

const char kMagic[8] = {'M', 'I', 'T', 'T', 'S', 'C', 'K', 'P'};

std::uint32_t
crc32(const void *data, std::size_t len, std::uint32_t crc)
{
    // Table-free bitwise CRC-32 (reflected 0xEDB88320). Checkpoint
    // I/O is not on the simulation fast path.
    const auto *p = static_cast<const unsigned char *>(data);
    crc = ~crc;
    for (std::size_t i = 0; i < len; ++i) {
        crc ^= p[i];
        for (int k = 0; k < 8; ++k)
            crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
    return ~crc;
}

namespace
{

void
putU32(std::string &out, std::uint32_t v)
{
    char buf[4];
    for (int i = 0; i < 4; ++i)
        buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    out.append(buf, 4);
}

void
putU64(std::string &out, std::uint64_t v)
{
    char buf[8];
    for (int i = 0; i < 8; ++i)
        buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    out.append(buf, 8);
}

std::uint32_t
getU32(const char *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(p[i]))
             << (8 * i);
    return v;
}

std::uint64_t
getU64(const char *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(p[i]))
             << (8 * i);
    return v;
}

} // namespace

// ---------------------------------------------------------------- Writer

void
Writer::raw(const void *data, std::size_t len)
{
    if (!open_)
        throw Error("checkpoint write outside a section");
    sections_.back().second.append(
        static_cast<const char *>(data), len);
}

void
Writer::beginSection(const std::string &name)
{
    if (open_)
        throw Error("checkpoint section '" + name +
                    "' opened inside '" + sections_.back().first +
                    "'");
    sections_.emplace_back(name, std::string());
    open_ = true;
}

void
Writer::endSection()
{
    if (!open_)
        throw Error("endSection without an open section");
    open_ = false;
}

void
Writer::u32(std::uint32_t v)
{
    std::string tmp;
    putU32(tmp, v);
    raw(tmp.data(), tmp.size());
}

void
Writer::u64(std::uint64_t v)
{
    std::string tmp;
    putU64(tmp, v);
    raw(tmp.data(), tmp.size());
}

void
Writer::f64(double v)
{
    u64(std::bit_cast<std::uint64_t>(v));
}

void
Writer::str(const std::string &s)
{
    u64(s.size());
    raw(s.data(), s.size());
}

void
Writer::vecU32(const std::vector<std::uint32_t> &v)
{
    u64(v.size());
    for (auto x : v)
        u32(x);
}

void
Writer::vecU64(const std::vector<std::uint64_t> &v)
{
    u64(v.size());
    for (auto x : v)
        u64(x);
}

void
Writer::vecF64(const std::vector<double> &v)
{
    u64(v.size());
    for (auto x : v)
        f64(x);
}

void
Writer::vecBool(const std::vector<bool> &v)
{
    u64(v.size());
    for (bool x : v)
        b(x);
}

void
Writer::request(const ReqPtr &req)
{
    if (!req) {
        u64(0);
        return;
    }
    // A live request's pool slot is stable for the whole snapshot, so
    // the slot-indexed table is an exact identity map — no hashing.
    const std::uint32_t slot = req.id().slot;
    if (slot >= slotIds_.size())
        slotIds_.resize(slot + 1, 0);
    if (slotIds_[slot] != 0) {
        u64(slotIds_[slot]);
        return;
    }
    const std::uint64_t id = nextReqId_++;
    slotIds_[slot] = id;
    u64(id);
    // First occurrence: inline the payload.
    u64(req->seq);
    u64(req->addr);
    u64(req->blockAddr);
    u8(static_cast<std::uint8_t>(req->op));
    i64(req->core);
    i64(req->thread);
    u64(req->createdAt);
    u64(req->l1MissAt);
    u64(req->shaperReleaseAt);
    u64(req->llcAt);
    u64(req->mcEnqueueAt);
    u64(req->dramIssueAt);
    u64(req->doneAt);
    b(req->llcHit);
}

std::string
Writer::finish(std::uint64_t config_hash) const
{
    if (open_)
        throw Error("finish() with section '" +
                    sections_.back().first + "' still open");
    std::string out;
    out.append(kMagic, sizeof(kMagic));
    putU32(out, kFormatVersion);
    putU64(out, config_hash);
    putU32(out, static_cast<std::uint32_t>(sections_.size()));
    for (const auto &[name, payload] : sections_) {
        putU32(out, static_cast<std::uint32_t>(name.size()));
        out.append(name);
        putU64(out, payload.size());
        out.append(payload);
        putU32(out, crc32(payload.data(), payload.size()));
    }
    putU32(out, crc32(out.data(), out.size()));
    return out;
}

void
Writer::writeFile(const std::string &path,
                  std::uint64_t config_hash) const
{
    const std::string image = finish(config_hash);
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            throw Error("cannot open '" + tmp + "' for writing");
        os.write(image.data(),
                 static_cast<std::streamsize>(image.size()));
        os.flush();
        if (!os)
            throw Error("short write to '" + tmp + "'");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw Error("cannot rename '" + tmp + "' to '" + path + "'");
    }
}

// ---------------------------------------------------------------- Reader

Reader::Reader(std::string data, std::uint64_t expected_config_hash)
    : data_(std::move(data))
{
    const std::size_t kHeader = sizeof(kMagic) + 4 + 8 + 4;
    if (data_.size() < kHeader + 4)
        throw Error("checkpoint truncated: " +
                    std::to_string(data_.size()) + " bytes");
    if (std::memcmp(data_.data(), kMagic, sizeof(kMagic)) != 0)
        throw Error("bad checkpoint magic (not a MITTS checkpoint)");
    std::size_t off = sizeof(kMagic);
    const std::uint32_t version = getU32(data_.data() + off);
    off += 4;
    if (version != kFormatVersion)
        throw Error("unsupported checkpoint format version " +
                    std::to_string(version) + " (expected " +
                    std::to_string(kFormatVersion) + ")");
    const std::uint64_t hash = getU64(data_.data() + off);
    off += 8;
    if (hash != expected_config_hash)
        throw Error(
            "config hash mismatch: checkpoint was taken under a "
            "different system configuration");
    const std::uint32_t file_crc =
        getU32(data_.data() + data_.size() - 4);
    const std::uint32_t want_crc =
        crc32(data_.data(), data_.size() - 4);
    if (file_crc != want_crc)
        throw Error("checkpoint file CRC mismatch (corrupted)");
    const std::uint32_t num_sections = getU32(data_.data() + off);
    off += 4;
    const std::size_t limit = data_.size() - 4;
    for (std::uint32_t s = 0; s < num_sections; ++s) {
        if (off + 4 > limit)
            throw Error("checkpoint truncated in section table");
        const std::uint32_t name_len = getU32(data_.data() + off);
        off += 4;
        if (off + name_len + 8 > limit)
            throw Error("checkpoint truncated in section header");
        std::string name(data_.data() + off, name_len);
        off += name_len;
        const std::uint64_t payload_len = getU64(data_.data() + off);
        off += 8;
        if (payload_len > limit - off || off + payload_len + 4 > limit)
            throw Error("checkpoint truncated in section '" + name +
                        "'");
        const std::uint32_t crc =
            getU32(data_.data() + off + payload_len);
        if (crc != crc32(data_.data() + off, payload_len))
            throw Error("CRC mismatch in section '" + name +
                        "' (corrupted)");
        sections_.push_back(Section{std::move(name), off,
                                    static_cast<std::size_t>(
                                        payload_len)});
        off += payload_len + 4;
    }
    if (off != limit)
        throw Error("trailing bytes after checkpoint sections");
}

Reader
Reader::fromFile(const std::string &path,
                 std::uint64_t expected_config_hash)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw Error("cannot open checkpoint '" + path + "'");
    std::string data((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    return Reader(std::move(data), expected_config_hash);
}

void
Reader::beginSection(const std::string &name)
{
    if (open_)
        throw Error("beginSection('" + name +
                    "') with a section still open");
    if (sectionIdx_ >= sections_.size())
        throw Error("checkpoint is missing section '" + name + "'");
    const Section &s = sections_[sectionIdx_];
    if (s.name != name)
        throw Error("checkpoint section mismatch: expected '" + name +
                    "', found '" + s.name + "'");
    pos_ = s.offset;
    end_ = s.offset + s.length;
    open_ = true;
}

void
Reader::endSection()
{
    if (!open_)
        throw Error("endSection without an open section");
    const Section &s = sections_[sectionIdx_];
    if (pos_ != end_)
        throw Error("section '" + s.name + "' has " +
                    std::to_string(end_ - pos_) + " unread bytes");
    open_ = false;
    ++sectionIdx_;
}

const char *
Reader::need(std::size_t n)
{
    if (!open_)
        throw Error("checkpoint read outside a section");
    if (end_ - pos_ < n)
        throw Error("section '" + sections_[sectionIdx_].name +
                    "' underrun");
    const char *p = data_.data() + pos_;
    pos_ += n;
    return p;
}

std::uint8_t
Reader::u8()
{
    return static_cast<std::uint8_t>(
        static_cast<unsigned char>(*need(1)));
}

std::uint32_t
Reader::u32()
{
    return getU32(need(4));
}

std::uint64_t
Reader::u64()
{
    return getU64(need(8));
}

double
Reader::f64()
{
    return std::bit_cast<double>(u64());
}

std::string
Reader::str()
{
    const std::uint64_t len = u64();
    return std::string(need(len), len);
}

std::vector<std::uint32_t>
Reader::vecU32()
{
    const std::uint64_t n = u64();
    std::vector<std::uint32_t> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        v.push_back(u32());
    return v;
}

std::vector<std::uint64_t>
Reader::vecU64()
{
    const std::uint64_t n = u64();
    std::vector<std::uint64_t> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        v.push_back(u64());
    return v;
}

std::vector<double>
Reader::vecF64()
{
    const std::uint64_t n = u64();
    std::vector<double> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        v.push_back(f64());
    return v;
}

std::vector<bool>
Reader::vecBool()
{
    const std::uint64_t n = u64();
    std::vector<bool> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        v.push_back(b());
    return v;
}

ReqPtr
Reader::request()
{
    const std::uint64_t id = u64();
    if (id == 0)
        return nullptr;
    if (id <= reqs_.size())
        return reqs_[id - 1];
    if (id != reqs_.size() + 1)
        throw Error("request intern id out of sequence");
    if (!pool_)
        throw Error("Reader::request without a bound RequestPool "
                    "(call bindPool before restoring requests)");
    ReqPtr r = pool_->makeBlank();
    r->seq = u64();
    r->addr = u64();
    r->blockAddr = u64();
    r->op = static_cast<MemOp>(u8());
    r->core = static_cast<CoreId>(i64());
    r->thread = static_cast<int>(i64());
    r->createdAt = u64();
    r->l1MissAt = u64();
    r->shaperReleaseAt = u64();
    r->llcAt = u64();
    r->mcEnqueueAt = u64();
    r->dramIssueAt = u64();
    r->doneAt = u64();
    r->llcHit = b();
    reqs_.push_back(r);
    return r;
}

// ------------------------------------------------------------- stats I/O

void
saveGroup(Writer &w, const stats::Group &g)
{
    w.str(g.name());
    w.u64(g.counters().size());
    for (const auto &c : g.counters()) {
        w.str(c->name());
        w.u64(c->value());
    }
    w.u64(g.averages().size());
    for (const auto &a : g.averages()) {
        w.str(a->name());
        w.f64(a->sum());
        w.u64(a->count());
        w.f64(a->min());
        w.f64(a->max());
    }
    w.u64(g.histograms().size());
    for (const auto &h : g.histograms()) {
        w.str(h->name());
        std::vector<std::uint64_t> bins(h->numBins());
        for (std::size_t i = 0; i < bins.size(); ++i)
            bins[i] = h->bin(i);
        w.vecU64(bins);
        w.u64(h->underflow());
        w.u64(h->overflow());
        w.u64(h->total());
        w.f64(h->sum());
    }
}

namespace
{

void
checkName(const std::string &want, const std::string &got,
          const char *what)
{
    if (want != got)
        throw Error(std::string("stats ") + what +
                    " mismatch: expected '" + want + "', found '" +
                    got + "'");
}

} // namespace

void
loadGroup(Reader &r, stats::Group &g)
{
    checkName(g.name(), r.str(), "group");
    if (r.u64() != g.counters().size())
        throw Error("stats group '" + g.name() +
                    "': counter count mismatch");
    for (const auto &c : g.counters()) {
        checkName(c->name(), r.str(), "counter");
        c->restore(r.u64());
    }
    if (r.u64() != g.averages().size())
        throw Error("stats group '" + g.name() +
                    "': average count mismatch");
    for (const auto &a : g.averages()) {
        checkName(a->name(), r.str(), "average");
        const double sum = r.f64();
        const std::uint64_t count = r.u64();
        const double lo = r.f64();
        const double hi = r.f64();
        a->restore(sum, count, lo, hi);
    }
    if (r.u64() != g.histograms().size())
        throw Error("stats group '" + g.name() +
                    "': histogram count mismatch");
    for (const auto &h : g.histograms()) {
        checkName(h->name(), r.str(), "histogram");
        auto bins = r.vecU64();
        if (bins.size() != h->numBins())
            throw Error("histogram '" + h->name() +
                        "': bin count mismatch");
        const std::uint64_t uf = r.u64();
        const std::uint64_t of = r.u64();
        const std::uint64_t total = r.u64();
        const double sum = r.f64();
        h->restore(std::move(bins), uf, of, total, sum);
    }
}

} // namespace mitts::ckpt

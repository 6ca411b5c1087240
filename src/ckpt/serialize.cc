#include "ckpt/serialize.hh"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "base/stats.hh"

namespace mitts::ckpt
{

const char kMagic[8] = {'M', 'I', 'T', 'T', 'S', 'C', 'K', 'P'};

namespace
{

// Header field offsets: magic, u32 version, u64 config hash, u32
// section count.
constexpr std::size_t kHashAt = sizeof(kMagic) + 4;
constexpr std::size_t kCountAt = kHashAt + 8;

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

void
setU32(std::string &s, std::size_t off, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        s[off + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

void
setU64(std::string &s, std::size_t off, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        s[off + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

std::uint32_t
getU32(const void *data)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
getU64(const void *data)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

/** Slicing-by-8 tables for the reflected polynomial 0xEDB88320:
 *  kCrcTables[0] is the classic byte table, and kCrcTables[k][b] is
 *  the CRC of byte b followed by k zero bytes. */
constexpr std::array<std::array<std::uint32_t, 256>, 8>
makeCrcTables()
{
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t b = 0; b < 256; ++b) {
        std::uint32_t c = b;
        for (int k = 0; k < 8; ++k)
            c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
        t[0][b] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::uint32_t b = 0; b < 256; ++b)
            t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFF];
    return t;
}

constexpr auto kCrcTables = makeCrcTables();

} // namespace

std::uint32_t
crc32(const void *data, std::size_t len, std::uint32_t crc)
{
    // Slicing-by-8: fold eight input bytes per step through eight
    // table lookups. Same values as the bitwise zlib CRC-32.
    const auto &t = kCrcTables;
    const auto *p = static_cast<const unsigned char *>(data);
    crc = ~crc;
    for (; len >= 8; p += 8, len -= 8) {
        const std::uint32_t lo = crc ^ getU32(p);
        crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
              t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
              t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    }
    for (; len > 0; ++p, --len)
        crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFF];
    return ~crc;
}

// ---------------------------------------------------------------- Writer

Writer::Writer()
{
    // The config hash and section count are patched in by finish().
    image_.append(kMagic, sizeof(kMagic));
    putU32(image_, kFormatVersion);
    putU64(image_, 0);
    putU32(image_, 0);
}

std::string &
Writer::sink()
{
    if (!open_)
        throw Error("checkpoint write outside a section");
    return image_;
}

void
Writer::raw(const void *data, std::size_t len)
{
    sink().append(static_cast<const char *>(data), len);
}

void
Writer::beginSection(const std::string &name)
{
    if (open_)
        throw Error("checkpoint section '" + name +
                    "' opened inside '" + openName_ + "'");
    putU32(image_, static_cast<std::uint32_t>(name.size()));
    image_ += name;
    putU64(image_, 0); // payload length, patched by endSection()
    payloadAt_ = image_.size();
    openName_ = name;
    open_ = true;
    ++numSections_;
}

void
Writer::endSection()
{
    if (!open_)
        throw Error("endSection without an open section");
    const std::size_t len = image_.size() - payloadAt_;
    setU64(image_, payloadAt_ - 8, len);
    putU32(image_, crc32(image_.data() + payloadAt_, len));
    open_ = false;
}

void
Writer::u32(std::uint32_t v)
{
    putU32(sink(), v);
}

void
Writer::u64(std::uint64_t v)
{
    putU64(sink(), v);
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
Writer::finish(std::uint64_t config_hash)
{
    if (open_)
        throw Error("finish() with section '" + openName_ +
                    "' still open");
    std::string out = std::move(image_);
    setU64(out, kHashAt, config_hash);
    setU32(out, kCountAt, numSections_);
    putU32(out, crc32(out.data(), out.size()));
    *this = Writer();
    return out;
}

void
Writer::writeFile(const std::string &path, std::uint64_t config_hash)
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
    // Only a regular file has a meaningful size: opened with `ate`, a
    // directory reports a size of 2^63 - 1 on ext4.
    std::error_code ec;
    const auto st = std::filesystem::status(path, ec);
    if (std::filesystem::exists(st) &&
        !std::filesystem::is_regular_file(st))
        throw Error("checkpoint '" + path + "' is not a regular file");
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is)
        throw Error("cannot open checkpoint '" + path + "'");
    const std::streamoff size = is.tellg();
    if (size < 0 || !is.seekg(0))
        throw Error("cannot read checkpoint '" + path + "'");
    std::string data(static_cast<std::size_t>(size), '\0');
    if (!is.read(data.data(), size))
        throw Error("short read from checkpoint '" + path + "'");
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

std::uint64_t
Reader::vecLength(std::size_t elem_bytes)
{
    const std::uint64_t n = u64();
    if (n > (end_ - pos_) / elem_bytes)
        throw Error("section '" + sections_[sectionIdx_].name +
                    "' declares a vector of " + std::to_string(n) +
                    " elements in its remaining " +
                    std::to_string(end_ - pos_) + " bytes");
    return n;
}

std::vector<std::uint32_t>
Reader::vecU32()
{
    const std::uint64_t n = vecLength(4);
    std::vector<std::uint32_t> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        v.push_back(u32());
    return v;
}

std::vector<std::uint64_t>
Reader::vecU64()
{
    const std::uint64_t n = vecLength(8);
    std::vector<std::uint64_t> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        v.push_back(u64());
    return v;
}

std::vector<double>
Reader::vecF64()
{
    const std::uint64_t n = vecLength(8);
    std::vector<double> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        v.push_back(f64());
    return v;
}

std::vector<bool>
Reader::vecBool()
{
    const std::uint64_t n = vecLength(1);
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

// ------------------------------------------------------------ Archive

void
Serializable::saveState(Writer &w) const
{
    Archive a(w);
    const_cast<Serializable *>(this)->checkpoint(a);
}

void
Serializable::loadState(Reader &r)
{
    Archive a(r);
    checkpoint(a);
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
Archive::name(const std::string &want, const char *what)
{
    if (saving())
        w_->str(want);
    else
        checkName(want, r_->str(), what);
}

void
Archive::group(stats::Group &g)
{
    name(g.name(), "group");
    auto count = [&](std::uint64_t n, const char *what) {
        std::uint64_t got = n;
        u64(got);
        if (got != n)
            throw Error("stats group '" + g.name() + "': " + what +
                        " count mismatch");
    };

    count(g.counters().size(), "counter");
    for (const auto &c : g.counters()) {
        name(c->name(), "counter");
        std::uint64_t v = c->value();
        u64(v);
        if (!saving())
            c->restore(v);
    }

    count(g.averages().size(), "average");
    for (const auto &avg : g.averages()) {
        name(avg->name(), "average");
        double sum = avg->sum(), lo = avg->min(), hi = avg->max();
        std::uint64_t n = avg->count();
        f64(sum);
        u64(n);
        f64(lo);
        f64(hi);
        if (!saving())
            avg->restore(sum, n, lo, hi);
    }

    count(g.histograms().size(), "histogram");
    for (const auto &h : g.histograms()) {
        name(h->name(), "histogram");
        std::vector<std::uint64_t> bins;
        if (saving()) {
            bins.resize(h->numBins());
            for (std::size_t i = 0; i < bins.size(); ++i)
                bins[i] = h->bin(i);
        }
        vecU64(bins);
        if (bins.size() != h->numBins())
            throw Error("histogram '" + h->name() +
                        "': bin count mismatch");
        std::uint64_t uf = h->underflow(), of = h->overflow(),
                      total = h->total();
        double sum = h->sum();
        u64(uf);
        u64(of);
        u64(total);
        f64(sum);
        if (!saving())
            h->restore(std::move(bins), uf, of, total, sum);
    }
}

} // namespace mitts::ckpt

#include "ckpt/serialize.hh"

#include <array>
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
constexpr std::size_t kHeaderBytes = kCountAt + 4;

/** Slicing-by-16 tables for the reflected polynomial 0xEDB88320:
 *  kCrcTables[0] is the classic byte table, and kCrcTables[k][b] is
 *  the CRC of byte b followed by k zero bytes. */
constexpr std::array<std::array<std::uint32_t, 256>, 16>
makeCrcTables()
{
    std::array<std::array<std::uint32_t, 256>, 16> t{};
    for (std::uint32_t b = 0; b < 256; ++b) {
        std::uint32_t c = b;
        for (int k = 0; k < 8; ++k)
            c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
        t[0][b] = c;
    }
    for (std::size_t k = 1; k < 16; ++k)
        for (std::uint32_t b = 0; b < 256; ++b)
            t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFF];
    return t;
}

constexpr auto kCrcTables = makeCrcTables();

/** Input word `w` (four bytes, the first in its low byte) folded
 *  through tables k + 3 down to k. */
inline std::uint32_t
fold(std::uint32_t w, std::size_t k)
{
    const auto &t = kCrcTables;
    return t[k + 3][w & 0xFF] ^ t[k + 2][(w >> 8) & 0xFF] ^
           t[k + 1][(w >> 16) & 0xFF] ^ t[k][w >> 24];
}

/** a * b modulo the CRC polynomial, both reflected (bit 31 is x^0). */
constexpr std::uint32_t
mulModP(std::uint32_t a, std::uint32_t b)
{
    std::uint32_t p = 0;
    for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
        if (a & m)
            p ^= b;
        b = (b >> 1) ^ (0xEDB88320u & (0u - (b & 1u)));
    }
    return p;
}

/** kX2n[k] = x^(2^k) modulo the CRC polynomial. x has order dividing
 *  2^32 - 1, so x^(2^32) = x and the table wraps after 32 entries. */
constexpr std::array<std::uint32_t, 32>
makeX2nTable()
{
    std::array<std::uint32_t, 32> t{};
    t[0] = 1u << 30; // x^1
    for (std::size_t k = 1; k < t.size(); ++k)
        t[k] = mulModP(t[k - 1], t[k - 1]);
    return t;
}

constexpr auto kX2n = makeX2nTable();

/** Encode `n` elements at `src` as consecutive little-endian fields of
 *  sizeof(T) bytes (doubles by their bit pattern). On a little-endian
 *  host the loop compiles to plain word moves, within ~15% of memcpy
 *  either way. */
template <class T>
void
encodeBlock(char *dst, const T *src, std::size_t n)
{
    using U = std::conditional_t<sizeof(T) == 8, std::uint64_t,
                                 std::uint32_t>;
    for (std::size_t i = 0; i < n; ++i)
        storeLe(dst + i * sizeof(T), std::bit_cast<U>(src[i]));
}

/** Mirror of encodeBlock. */
template <class T>
void
decodeBlock(T *dst, const char *src, std::size_t n)
{
    using U = std::conditional_t<sizeof(T) == 8, std::uint64_t,
                                 std::uint32_t>;
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = std::bit_cast<T>(loadLe<U>(src + i * sizeof(T)));
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t len, std::uint32_t crc)
{
    // Slicing-by-16: fold sixteen input bytes per step through sixteen
    // table lookups. Same values as the bitwise zlib CRC-32.
    const auto *p = static_cast<const char *>(data);
    crc = ~crc;
    for (; len >= 16; p += 16, len -= 16) {
        crc = fold(crc ^ loadLe<std::uint32_t>(p), 12) ^
              fold(loadLe<std::uint32_t>(p + 4), 8) ^
              fold(loadLe<std::uint32_t>(p + 8), 4) ^
              fold(loadLe<std::uint32_t>(p + 12), 0);
    }
    const auto &t0 = kCrcTables[0];
    for (; len > 0; ++p, --len)
        crc = (crc >> 8) ^ t0[(crc ^ static_cast<unsigned char>(*p)) & 0xFF];
    return ~crc;
}

std::uint32_t
crc32Combine(std::uint32_t crc_a, std::uint32_t crc_b, std::uint64_t len_b)
{
    // Appending B shifts A's CRC register through 8 * len_b zero bits,
    // a multiplication by x^(8 len_b) modulo P; B's own CRC then adds
    // in (zlib's crc32_combine method).
    std::uint32_t shift = 1u << 31; // x^0
    for (unsigned k = 3; len_b != 0; len_b >>= 1, ++k) {
        if (len_b & 1)
            shift = mulModP(kX2n[k & 31], shift);
    }
    return mulModP(shift, crc_a) ^ crc_b;
}

// ---------------------------------------------------------------- Writer

Writer::Writer()
{
    // The config hash and section count are patched in by seal().
    char *p = append(kHeaderBytes);
    std::memcpy(p, kMagic, sizeof(kMagic));
    storeLe(p + sizeof(kMagic), kFormatVersion);
    storeLe(p + kHashAt, std::uint64_t{0});
    storeLe(p + kCountAt, std::uint32_t{0});
}

void
Writer::reserve(std::size_t bytes)
{
    const std::size_t cap = std::max(bytes, 2 * capacity_);
    char *grown = static_cast<char *>(std::malloc(cap));
    if (!grown)
        throw std::bad_alloc();
    if (size_ != 0)
        std::memcpy(grown, image_.get(), size_);
    image_.reset(grown);
    capacity_ = cap;
}

void
Writer::writeOutsideSection()
{
    throw Error("checkpoint write outside a section");
}

void
Writer::beginSection(const std::string &name)
{
    if (open_)
        throw Error("checkpoint section '" + name +
                    "' opened inside '" + openName_ + "'");
    sectionAt_ = size_;
    char *p = append(4 + name.size() + 8);
    storeLe(p, static_cast<std::uint32_t>(name.size()));
    if (!name.empty())
        std::memcpy(p + 4, name.data(), name.size());
    // The payload length is patched by endSection().
    payloadAt_ = size_;
    openName_ = name;
    open_ = true;
    ++numSections_;
}

void
Writer::endSection()
{
    if (!open_)
        throw Error("endSection without an open section");
    const std::size_t len = size_ - payloadAt_;
    storeLe(image_.get() + payloadAt_ - 8, std::uint64_t{len});
    const std::uint32_t crc = crc32(image_.get() + payloadAt_, len);
    storeLe(append(4), crc);
    // Fold the record into the body CRC: its framing bytes, then the
    // payload by its CRC, then the payload CRC's own bytes.
    const char *rec = image_.get() + sectionAt_;
    bodyCrc_ = crc32(rec, payloadAt_ - sectionAt_, bodyCrc_);
    bodyCrc_ = crc32Combine(bodyCrc_, crc, len);
    bodyCrc_ = crc32(image_.get() + size_ - 4, 4, bodyCrc_);
    open_ = false;
}

void
Writer::str(const std::string &s)
{
    u64(s.size());
    if (!s.empty())
        std::memcpy(field(s.size()), s.data(), s.size());
}

void
Writer::vecU32(const std::vector<std::uint32_t> &v)
{
    u64(v.size());
    encodeBlock(field(4 * v.size()), v.data(), v.size());
}

void
Writer::vecU64(const std::vector<std::uint64_t> &v)
{
    u64(v.size());
    encodeBlock(field(8 * v.size()), v.data(), v.size());
}

void
Writer::vecF64(const std::vector<double> &v)
{
    u64(v.size());
    encodeBlock(field(8 * v.size()), v.data(), v.size());
}

void
Writer::vecBool(const std::vector<bool> &v)
{
    u64(v.size());
    char *p = field(v.size());
    for (bool x : v)
        *p++ = x ? 1 : 0;
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

void
Writer::seal(std::uint64_t config_hash)
{
    if (open_)
        throw Error("finish() with section '" + openName_ +
                    "' still open");
    char *head = image_.get();
    storeLe(head + kHashAt, config_hash);
    storeLe(head + kCountAt, numSections_);
    // Only the header is read again: the body's CRC was folded from
    // each section's as it closed.
    const std::uint32_t crc =
        crc32Combine(crc32(head, kHeaderBytes), bodyCrc_,
                     size_ - kHeaderBytes);
    storeLe(append(4), crc);
}

std::string
Writer::finish(std::uint64_t config_hash)
{
    seal(config_hash);
    std::string out(image_.get(), size_);
    *this = Writer();
    return out;
}

void
Writer::writeFile(const std::string &path, std::uint64_t config_hash)
{
    seal(config_hash);
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            throw Error("cannot open '" + tmp + "' for writing");
        os.write(image_.get(), static_cast<std::streamsize>(size_));
        os.flush();
        if (!os)
            throw Error("short write to '" + tmp + "'");
    }
    *this = Writer();
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw Error("cannot rename '" + tmp + "' to '" + path + "'");
    }
}

// ---------------------------------------------------------------- Reader

namespace
{

std::unique_ptr<char[]>
copyBytes(const std::string &s)
{
    auto p = std::make_unique_for_overwrite<char[]>(s.size());
    if (!s.empty())
        std::memcpy(p.get(), s.data(), s.size());
    return p;
}

} // namespace

Reader::Reader(std::string data, std::uint64_t expected_config_hash)
    : Reader(copyBytes(data), data.size(), expected_config_hash)
{
}

Reader::Reader(std::unique_ptr<char[]> data, std::size_t size,
               std::uint64_t expected_config_hash)
    : data_(std::move(data)), size_(size)
{
    const char *d = data_.get();
    if (size_ < kHeaderBytes + 4)
        throw Error("checkpoint truncated: " + std::to_string(size_) +
                    " bytes");
    if (std::memcmp(d, kMagic, sizeof(kMagic)) != 0)
        throw Error("bad checkpoint magic (not a MITTS checkpoint)");
    const auto version = loadLe<std::uint32_t>(d + sizeof(kMagic));
    if (version != kFormatVersion)
        throw Error("unsupported checkpoint format version " +
                    std::to_string(version) + " (expected " +
                    std::to_string(kFormatVersion) + ")");
    if (loadLe<std::uint64_t>(d + kHashAt) != expected_config_hash)
        throw Error(
            "config hash mismatch: checkpoint was taken under a "
            "different system configuration");
    // One pass: index the sections, checking each payload's CRC, and
    // fold those CRCs into the file CRC. A good image is read once.
    const auto file_crc = loadLe<std::uint32_t>(d + size_ - 4);
    try {
        if (indexSections() == file_crc)
            return;
    } catch (const Error &) {
    }
    // A bad image reports what the two-pass check reports: the
    // whole-image CRC first, then the framing and section CRCs.
    if (crc32(d, size_ - 4) != file_crc)
        throw Error("checkpoint file CRC mismatch (corrupted)");
    sections_.clear();
    indexSections();
}

std::uint32_t
Reader::indexSections()
{
    const char *d = data_.get();
    const std::uint32_t num_sections = loadLe<std::uint32_t>(d + kCountAt);
    std::uint32_t file_crc = crc32(d, kHeaderBytes);
    std::size_t off = kHeaderBytes;
    const std::size_t limit = size_ - 4;
    for (std::uint32_t s = 0; s < num_sections; ++s) {
        const std::size_t rec = off;
        if (off + 4 > limit)
            throw Error("checkpoint truncated in section table");
        const std::uint32_t name_len = loadLe<std::uint32_t>(d + off);
        off += 4;
        if (off + name_len + 8 > limit)
            throw Error("checkpoint truncated in section header");
        std::string name(d + off, name_len);
        off += name_len;
        const std::uint64_t payload_len = loadLe<std::uint64_t>(d + off);
        off += 8;
        if (payload_len > limit - off || off + payload_len + 4 > limit)
            throw Error("checkpoint truncated in section '" + name +
                        "'");
        const std::uint32_t crc = crc32(d + off, payload_len);
        if (loadLe<std::uint32_t>(d + off + payload_len) != crc)
            throw Error("CRC mismatch in section '" + name +
                        "' (corrupted)");
        file_crc = crc32(d + rec, off - rec, file_crc);
        file_crc = crc32Combine(file_crc, crc, payload_len);
        file_crc = crc32(d + off + payload_len, 4, file_crc);
        sections_.push_back(Section{std::move(name), off,
                                    static_cast<std::size_t>(
                                        payload_len)});
        off += payload_len + 4;
    }
    if (off != limit)
        throw Error("trailing bytes after checkpoint sections");
    return file_crc;
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
    // The read fills every byte, so the buffer is not zeroed first.
    auto data = std::make_unique_for_overwrite<char[]>(
        static_cast<std::size_t>(size));
    if (!is.read(data.get(), size))
        throw Error("short read from checkpoint '" + path + "'");
    return Reader(std::move(data), static_cast<std::size_t>(size),
                  expected_config_hash);
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

void
Reader::underrun() const
{
    if (!open_)
        throw Error("checkpoint read outside a section");
    throw Error("section '" + sections_[sectionIdx_].name +
                "' underrun");
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

void
Reader::vecU32(std::vector<std::uint32_t> &v)
{
    const std::uint64_t n = vecLength(4);
    v.resize(n);
    decodeBlock(v.data(), need(4 * n), n);
}

void
Reader::vecU64(std::vector<std::uint64_t> &v)
{
    const std::uint64_t n = vecLength(8);
    v.resize(n);
    decodeBlock(v.data(), need(8 * n), n);
}

void
Reader::vecF64(std::vector<double> &v)
{
    const std::uint64_t n = vecLength(8);
    v.resize(n);
    decodeBlock(v.data(), need(8 * n), n);
}

void
Reader::vecBool(std::vector<bool> &v)
{
    const std::uint64_t n = vecLength(1);
    const char *p = need(n);
    v.assign(n, false);
    for (std::uint64_t i = 0; i < n; ++i)
        v[i] = p[i] != 0;
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

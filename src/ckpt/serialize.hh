/**
 * @file
 * Versioned binary checkpoint format.
 *
 * A checkpoint file is a header (magic, format version, config hash)
 * followed by named TLV sections, each protected by its own CRC32, and
 * a whole-file CRC32 trailer:
 *
 *     "MITTSCKP"  u32 version  u64 configHash  u32 sectionCount
 *     sectionCount x [ u32 nameLen, name, u64 payloadLen, payload,
 *                      u32 payloadCrc ]
 *     u32 fileCrc            (over every preceding byte)
 *
 * All integers are little-endian fixed width; doubles are written as
 * their IEEE-754 bit pattern, so a round trip is bit-exact. Each
 * component describes its state once, in a checkpoint(Archive &) walk
 * that both saves (over a Writer) and restores (over a Reader), so it
 * reads back exactly the bytes it wrote. The Reader fails loudly
 * (ckpt::Error) on any mismatch: truncation, bad magic, unknown
 * version, config-hash mismatch, CRC mismatch, section-name mismatch,
 * or a section that is under- or over-consumed.
 *
 * MemRequest objects are shared (one ReqPtr handle may sit in an LLC
 * miss list, a controller queue, and a pending completion event at
 * once); Writer::request / Reader::request intern them so aliasing
 * survives the round trip. Interning is positional — both sides must
 * visit requests in the same order, which the fixed section order
 * guarantees — and keyed by the request's stable RequestPool slot on
 * the write side. The Reader allocates restored requests from the
 * pool bound via bindPool().
 */

#ifndef MITTS_CKPT_SERIALIZE_HH
#define MITTS_CKPT_SERIALIZE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/types.hh"
#include "mem/request_pool.hh"

namespace mitts::stats
{
class Group;
} // namespace mitts::stats

namespace mitts::ckpt
{

/** Checkpoint format revision; bump on any layout change.
 *  v2: the core section gained the halted flag (cloud slots).
 *  v3: request payloads carried schedMarked (PAR-BS flat state).
 *  v4: schedMarked dropped with PAR-BS; request payloads end at
 *      llcHit.
 *  v5: static/FST gate tokens and Rolling shaper remainders are
 *      exact integers (u64 level + refill tick; u64 remainders).
 *  v6: core window slots carry a u64 ready tick instead of a done
 *      flag; events drop their core and seq fields (the L1-hit
 *      completion event is gone). */
constexpr std::uint32_t kFormatVersion = 6;

/** File magic ("MITTSCKP", 8 bytes, no terminator). */
extern const char kMagic[8];

/** Any malformed, mismatched or unwritable checkpoint. */
class Error : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** CRC-32 (IEEE 802.3 polynomial, the zlib convention). */
std::uint32_t crc32(const void *data, std::size_t len,
                    std::uint32_t crc = 0);

/** The CRC-32 of A followed by B, from crc32(A), crc32(B) and B's
 *  length alone (B's bytes are not read). */
std::uint32_t crc32Combine(std::uint32_t crc_a, std::uint32_t crc_b,
                           std::uint64_t len_b);

/** Store `v` at `p` as sizeof(T) little-endian bytes. The bytes are
 *  assembled in a local word and copied once, so compilers emit one
 *  store, also in a loop over a block (stored straight into `p` byte
 *  by byte, GCC vectorizes such a loop into byte shuffles). */
template <class T>
inline void
storeLe(char *p, T v)
{
    static_assert(std::is_unsigned_v<T>);
    char word[sizeof(T)];
    [&]<std::size_t... I>(std::index_sequence<I...>) {
        ((word[I] = static_cast<char>(v >> (8 * I))), ...);
    }(std::make_index_sequence<sizeof(T)>{});
    std::memcpy(p, word, sizeof(T));
}

/** The sizeof(T) little-endian bytes at `p` (one expression, which
 *  compilers merge into one load). */
template <class T>
inline T
loadLe(const char *p)
{
    static_assert(std::is_unsigned_v<T>);
    return [&]<std::size_t... I>(std::index_sequence<I...>) {
        return ((static_cast<T>(static_cast<unsigned char>(p[I]))
                 << (8 * I)) |
                ...);
    }(std::make_index_sequence<sizeof(T)>{});
}

/** Serializer: encodes each section in place in one image buffer,
 *  then seals it. */
class Writer
{
  public:
    Writer();

    /** Open a new section; sections cannot nest. */
    void beginSection(const std::string &name);
    void endSection();

    void u8(std::uint8_t v) { *field(1) = static_cast<char>(v); }
    void u32(std::uint32_t v) { storeLe(field(4), v); }
    void u64(std::uint64_t v) { storeLe(field(8), v); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void b(bool v) { u8(v ? 1 : 0); }
    void str(const std::string &s);

    /** A u64 element count, then the elements as one block. */
    void vecU32(const std::vector<std::uint32_t> &v);
    void vecU64(const std::vector<std::uint64_t> &v);
    void vecF64(const std::vector<double> &v);
    void vecBool(const std::vector<bool> &v);

    /** Append `n` bytes to the open section for the caller to fill
     *  (a block of fixed-width records); returns the first. */
    char *block(std::size_t n) { return field(n); }

    /**
     * Write a (possibly shared, possibly null) request. The first
     * occurrence assigns the next id and inlines the payload; later
     * occurrences write only the id, preserving aliasing.
     */
    void request(const ReqPtr &req);

    /** Seal the image (config hash, section count, file CRC) and
     *  hand it over; the Writer is left empty. */
    std::string finish(std::uint64_t config_hash);

    /** Seal the image and write it to `path` via write-to-temp +
     *  atomic rename, leaving the Writer empty. */
    void writeFile(const std::string &path, std::uint64_t config_hash);

  private:
    /** `n` bytes appended to the open section; throws Error when no
     *  section is open. */
    char *
    field(std::size_t n)
    {
        if (!open_)
            writeOutsideSection();
        return append(n);
    }

    /** `n` uninitialised bytes appended to the image. */
    char *
    append(std::size_t n)
    {
        if (capacity_ - size_ < n)
            reserve(size_ + n);
        char *p = image_.get() + size_;
        size_ += n;
        return p;
    }

    /** Grow the buffer to hold at least `bytes`, copying only the
     *  bytes written so far: nothing is zero-filled. (realloc read
     *  2-5% higher peak RSS on the benchmark's System workloads.) */
    void reserve(std::size_t bytes);
    [[noreturn]] static void writeOutsideSection();
    /** Patch the header's hash and section count and append the file
     *  CRC, folded from the header and body CRCs. */
    void seal(std::uint64_t config_hash);

    struct Free
    {
        void operator()(char *p) const { std::free(p); }
    };

    /** Header, then each section's record as it is written: sections
     *  are encoded in place, closed with their length and CRC. */
    std::unique_ptr<char, Free> image_;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
    std::string openName_;
    std::size_t sectionAt_ = 0; ///< open section's record offset
    std::size_t payloadAt_ = 0; ///< open section's payload offset
    std::uint32_t numSections_ = 0;
    /** CRC of every closed section record: each record's framing
     *  bytes, with its payload CRC folded in, not recomputed. */
    std::uint32_t bodyCrc_ = 0;
    bool open_ = false;
    // Positional interning: ids are assigned in serialization order.
    // Indexed by RequestPool slot (stable for a live request); a
    // stored value of 0 means "not yet interned".
    std::vector<std::uint64_t> slotIds_;
    std::uint64_t nextReqId_ = 1;
};

/** Deserializer over a fully validated checkpoint image. */
class Reader
{
  public:
    /** Parse and validate an in-memory image (header, CRCs, hash). */
    Reader(std::string data, std::uint64_t expected_config_hash);

    /** Read `path` (a regular file, in one sized read) and validate.
     *  Throws Error on any problem. */
    static Reader fromFile(const std::string &path,
                           std::uint64_t expected_config_hash);

    /**
     * Bind the arena that deserialized requests are allocated from.
     * Must be called before the first request() read; readers that
     * never encounter a non-null request don't need one.
     */
    void bindPool(RequestPool &pool) { pool_ = &pool; }

    /** Enter the next section, which must be named `name`. */
    void beginSection(const std::string &name);
    /** Leave the current section; throws if bytes remain unread. */
    void endSection();
    /** Sections not yet consumed (0 when fully read). */
    std::size_t remainingSections() const
    {
        return sections_.size() - sectionIdx_;
    }

    std::uint8_t u8() { return static_cast<unsigned char>(*need(1)); }
    std::uint32_t u32() { return loadLe<std::uint32_t>(need(4)); }
    std::uint64_t u64() { return loadLe<std::uint64_t>(need(8)); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64() { return std::bit_cast<double>(u64()); }
    bool b() { return u8() != 0; }
    std::string str();

    /** Mirrors of Writer's vectors, decoded straight into `v`. */
    void vecU32(std::vector<std::uint32_t> &v);
    void vecU64(std::vector<std::uint64_t> &v);
    void vecF64(std::vector<double> &v);
    void vecBool(std::vector<bool> &v);

    /** The same, returned by value. */
    std::vector<std::uint32_t>
    vecU32()
    {
        std::vector<std::uint32_t> v;
        vecU32(v);
        return v;
    }

    std::vector<std::uint64_t>
    vecU64()
    {
        std::vector<std::uint64_t> v;
        vecU64(v);
        return v;
    }

    std::vector<double>
    vecF64()
    {
        std::vector<double> v;
        vecF64(v);
        return v;
    }

    std::vector<bool>
    vecBool()
    {
        std::vector<bool> v;
        vecBool(v);
        return v;
    }

    /** The next `n` bytes of the open section (a block of fixed-width
     *  records), bounds-checked once. */
    const char *block(std::size_t n) { return need(n); }

    /** Mirror of Writer::request. */
    ReqPtr request();

  private:
    /** Take ownership of `size` bytes at `data` and validate them. */
    Reader(std::unique_ptr<char[]> data, std::size_t size,
           std::uint64_t expected_config_hash);

    const char *
    need(std::size_t n)
    {
        if (!open_ || end_ - pos_ < n)
            underrun();
        const char *p = data_.get() + pos_;
        pos_ += n;
        return p;
    }

    [[noreturn]] void underrun() const;
    /** Read a vector's element count; throw Error when the open
     *  section's remaining bytes cannot hold that many elements of
     *  `elem_bytes` bytes (checked before anything is reserved). */
    std::uint64_t vecLength(std::size_t elem_bytes);
    /** Index the section records after the header, checking their
     *  framing and payload CRCs (throws Error at the first bad one);
     *  returns the CRC of every byte before the file CRC, folded from
     *  the payload CRCs. */
    std::uint32_t indexSections();

    std::unique_ptr<char[]> data_;
    std::size_t size_ = 0;
    struct Section
    {
        std::string name;
        std::size_t offset;
        std::size_t length;
    };
    std::vector<Section> sections_;
    std::size_t sectionIdx_ = 0;
    std::size_t pos_ = 0;   ///< cursor within the open section
    std::size_t end_ = 0;   ///< one past the open section's payload
    bool open_ = false;
    RequestPool *pool_ = nullptr;
    std::vector<ReqPtr> reqs_;
};

class Serializable;

/** The cursors Archive::records runs a record walk through: one sizes
 *  a record, one encodes into and one decodes from a bounded block. */
struct RecordSizer
{
    std::size_t bytes = 0;
    void b(bool &) { bytes += 1; }
    void u64(std::uint64_t &) { bytes += 8; }
};

struct RecordEncoder
{
    char *p;
    void b(bool &v) { *p++ = v ? 1 : 0; }

    void
    u64(std::uint64_t &v)
    {
        storeLe(p, v);
        p += 8;
    }
};

struct RecordDecoder
{
    const char *p;
    void b(bool &v) { v = *p++ != 0; }

    void
    u64(std::uint64_t &v)
    {
        v = loadLe<std::uint64_t>(p);
        p += 8;
    }
};

/**
 * One walk, two directions. A component describes its state once, in
 * `checkpoint(Archive &a)`; built over a Writer the walk saves, built
 * over a Reader the same walk restores. Every field call takes a
 * reference: it writes the field when saving and assigns it when
 * restoring, so no layout is written down twice.
 *
 * A walk branches on saving() only where the two directions do
 * different work (drain-order sorting, rebuilding derived state);
 * check() and expect() validate on restore and always hold on save.
 * Saving runs through a const_cast in Serializable's saveState entry
 * point, so a walk must never change a field while saving.
 */
class Archive
{
  public:
    explicit Archive(Writer &w) : w_(&w) {}
    explicit Archive(Reader &r) : r_(&r) {}

    bool saving() const { return w_ != nullptr; }

    void
    beginSection(const std::string &name)
    {
        w_ ? w_->beginSection(name) : r_->beginSection(name);
    }

    void endSection() { w_ ? w_->endSection() : r_->endSection(); }

    void u8(std::uint8_t &v) { w_ ? w_->u8(v) : void(v = r_->u8()); }
    void u32(std::uint32_t &v) { w_ ? w_->u32(v) : void(v = r_->u32()); }
    void u64(std::uint64_t &v) { w_ ? w_->u64(v) : void(v = r_->u64()); }
    void i64(std::int64_t &v) { w_ ? w_->i64(v) : void(v = r_->i64()); }
    void f64(double &v) { w_ ? w_->f64(v) : void(v = r_->f64()); }
    void b(bool &v) { w_ ? w_->b(v) : void(v = r_->b()); }
    void str(std::string &v) { w_ ? w_->str(v) : void(v = r_->str()); }

    void
    vecU32(std::vector<std::uint32_t> &v)
    {
        w_ ? w_->vecU32(v) : r_->vecU32(v);
    }

    void
    vecU64(std::vector<std::uint64_t> &v)
    {
        w_ ? w_->vecU64(v) : r_->vecU64(v);
    }

    void
    vecF64(std::vector<double> &v)
    {
        w_ ? w_->vecF64(v) : r_->vecF64(v);
    }

    void
    vecBool(std::vector<bool> &v)
    {
        w_ ? w_->vecBool(v) : r_->vecBool(v);
    }

    /** A (possibly shared, possibly null) request, interned by the
     *  Writer/Reader so aliasing survives the round trip. */
    void
    request(ReqPtr &req)
    {
        w_ ? w_->request(req) : void(req = r_->request());
    }

    /**
     * One fixed-width record per element of `c`, as a single block.
     * `rec(cursor, elem)` describes a record once, through a cursor
     * with the field calls b and u64; it must write the same fields
     * for every element. The block is sized from one record, then
     * bounded (restore) or allocated (save) once, so no field is
     * checked on its own. The element count is not written: the
     * caller's structure fixes it.
     */
    template <class C, class F>
    void
    records(C &c, F &&rec)
    {
        if (c.empty())
            return;
        RecordSizer size;
        rec(size, *c.begin());
        const std::size_t bytes = size.bytes * c.size();
        if (saving()) {
            RecordEncoder out{w_->block(bytes)};
            for (auto &e : c)
                rec(out, e);
        } else {
            RecordDecoder in{r_->block(bytes)};
            for (auto &e : c)
                rec(in, e);
        }
    }

    /** A stats::Group: counters, averages and histograms by
     *  registration order; names are checked on restore. */
    void group(stats::Group &g);

    /** A Serializable member, through its virtual saveState /
     *  loadState entry points (so a decorator's forwarding runs). */
    void state(Serializable &s);

    /** A structural count: written on save; on restore, read and
     *  rejected with Error(what) unless it equals `n`. */
    void
    expect(std::uint64_t n, const char *what)
    {
        std::uint64_t got = n;
        u64(got);
        check(got == n, what);
    }

    /** Restore-side validation; `ok` always holds when saving. */
    static void
    check(bool ok, const char *what)
    {
        if (!ok)
            throw Error(what);
    }

    /**
     * A length-prefixed sequence, each element walked by `elem`. On
     * restore `c` is cleared and one default element is appended per
     * saved entry before `elem` fills it.
     */
    template <class C, class F>
    void
    seq(C &c, F &&elem)
    {
        std::uint64_t n = c.size();
        u64(n);
        if (!saving()) {
            c.clear();
            for (std::uint64_t i = 0; i < n; ++i)
                elem(c.emplace_back());
            return;
        }
        for (auto &e : c)
            elem(e);
    }

    /**
     * An unordered map with u64 keys, walked in key order (its own
     * iteration order is not deterministic): the entry count, then
     * each key followed by its value walked by `value`. Restore
     * clears `m` first.
     */
    template <class M, class F>
    void
    sortedMap(M &m, F &&value)
    {
        std::vector<std::uint64_t> keys;
        if (saving()) {
            keys.reserve(m.size());
            for (const auto &entry : m)
                keys.push_back(entry.first);
            std::sort(keys.begin(), keys.end());
        } else {
            m.clear();
        }
        std::uint64_t n = keys.size();
        u64(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            std::uint64_t key = saving() ? keys[i] : 0;
            u64(key);
            value(m[key]);
        }
    }

    /** A generator's state words (anything with state() returning
     *  an array of u64 and a matching setState()). */
    template <class G>
    void
    rng(G &g)
    {
        auto s = g.state();
        for (std::uint64_t &word : s)
            u64(word);
        if (!saving())
            g.setState(s);
    }

    // -- typed helpers: a field stored in a different width ----------

    /** A byte-sized 0/1 flag stored as a bool byte. */
    void
    flag(std::uint8_t &v)
    {
        bool on = v != 0;
        b(on);
        if (!saving())
            v = on ? 1 : 0;
    }

    /** An enum stored as one byte; restore rejects a byte past
     *  `last` with "<what> <byte> out of range". */
    template <class E>
    void
    enumByte(E &v, E last, const char *what)
    {
        std::uint8_t raw = static_cast<std::uint8_t>(v);
        u8(raw);
        if (saving())
            return;
        if (raw > static_cast<std::uint8_t>(last))
            outOfRange(what, std::to_string(raw));
        v = static_cast<E>(raw);
    }

    /** An integer stored as a u64 (i64 when signed); restore rejects
     *  a value that does not fit `T` with "<what> <value> out of
     *  range". */
    template <class T>
    void
    narrow(T &v, const char *what)
    {
        static_assert(std::is_integral_v<T> && sizeof(T) <= 8);
        std::conditional_t<std::is_signed_v<T>, std::int64_t,
                           std::uint64_t>
            wide = v;
        if constexpr (std::is_signed_v<T>)
            i64(wide);
        else
            u64(wide);
        if (saving())
            return;
        if (!std::in_range<T>(wide))
            outOfRange(what, std::to_string(wide));
        v = static_cast<T>(wide);
    }

    /** An index into a table of `n` entries, stored like narrow();
     *  restore rejects a value outside [0, n) with "<what> <value> out
     *  of range". */
    template <class T>
    void
    index(T &v, std::uint64_t n, const char *what)
    {
        narrow(v, what);
        if (!saving() &&
            !(std::cmp_greater_equal(v, 0) && std::cmp_less(v, n)))
            outOfRange(what, std::to_string(v));
    }

  private:
    /** A registered name: written on save, checked on restore. */
    void name(const std::string &want, const char *what);

    [[noreturn]] static void
    outOfRange(const char *what, const std::string &value)
    {
        throw Error(std::string(what) + " " + value + " out of range");
    }

    Writer *w_ = nullptr;
    Reader *r_ = nullptr;
};

/**
 * Implemented by every stateful component that a holder walks by its
 * interface (traces, cores, caches, schedulers, shapers, extras).
 * saveState / loadState are the entry points: both wrap the stream in
 * an Archive and run the one checkpoint() walk. They stay virtual so a
 * decorator can forward them to the object it wraps.
 */
class Serializable
{
  public:
    virtual ~Serializable() = default;
    virtual void saveState(Writer &w) const;
    virtual void loadState(Reader &r);

  protected:
    /** The component's one checkpoint walk. */
    virtual void checkpoint(Archive &a) = 0;
};

// Defined once Serializable is complete.

inline void
Archive::state(Serializable &s)
{
    saving() ? s.saveState(*w_) : s.loadState(*r_);
}

} // namespace mitts::ckpt

#endif // MITTS_CKPT_SERIALIZE_HH

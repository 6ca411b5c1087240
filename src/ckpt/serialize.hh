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
 * their IEEE-754 bit pattern, so a round trip is bit-exact. Components
 * implement Serializable and read back exactly the bytes they wrote —
 * the Reader fails loudly (ckpt::Error) on any mismatch: truncation,
 * bad magic, unknown version, config-hash mismatch, CRC mismatch,
 * section-name mismatch, or a section that is under- or over-consumed.
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

#include <cstdint>
#include <stdexcept>
#include <string>
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

class Writer;
class Reader;

/** Implemented by every stateful component. */
class Serializable
{
  public:
    virtual ~Serializable() = default;
    virtual void saveState(Writer &w) const = 0;
    virtual void loadState(Reader &r) = 0;
};

/** Serializer: accumulates sections in memory, then finalizes. */
class Writer
{
  public:
    /** Open a new section; sections cannot nest. */
    void beginSection(const std::string &name);
    void endSection();

    void u8(std::uint8_t v) { raw(&v, 1); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void f64(double v);
    void b(bool v) { u8(v ? 1 : 0); }
    void str(const std::string &s);

    void vecU32(const std::vector<std::uint32_t> &v);
    void vecU64(const std::vector<std::uint64_t> &v);
    void vecF64(const std::vector<double> &v);
    void vecBool(const std::vector<bool> &v);

    /**
     * Write a (possibly shared, possibly null) request. The first
     * occurrence assigns the next id and inlines the payload; later
     * occurrences write only the id, preserving aliasing.
     */
    void request(const ReqPtr &req);

    /** Assemble the final byte stream (header + sections + CRC). */
    std::string finish(std::uint64_t config_hash) const;

    /** finish() to `path` via write-to-temp + atomic rename. */
    void writeFile(const std::string &path,
                   std::uint64_t config_hash) const;

  private:
    void raw(const void *data, std::size_t len);

    std::vector<std::pair<std::string, std::string>> sections_;
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

    /** Read `path` and validate. Throws Error on any problem. */
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

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64();
    bool b() { return u8() != 0; }
    std::string str();

    std::vector<std::uint32_t> vecU32();
    std::vector<std::uint64_t> vecU64();
    std::vector<double> vecF64();
    std::vector<bool> vecBool();

    /** Mirror of Writer::request. */
    ReqPtr request();

  private:
    const char *need(std::size_t n);
    /** Read a vector's element count; throw Error when the open
     *  section's remaining bytes cannot hold that many elements of
     *  `elem_bytes` bytes (checked before anything is reserved). */
    std::uint64_t vecLength(std::size_t elem_bytes);

    std::string data_;
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

/**
 * Save / restore a stats::Group (counters, averages, histograms, by
 * registration order; names are checked on load).
 */
void saveGroup(Writer &w, const stats::Group &g);
void loadGroup(Reader &r, stats::Group &g);

} // namespace mitts::ckpt

#endif // MITTS_CKPT_SERIALIZE_HH

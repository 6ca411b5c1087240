/**
 * @file
 * FNV-1a, the one content hash behind configuration hashes, scenario
 * hashes and sweep cache keys, plus the 16-digit hex form those keys
 * are printed in. Words are fed little-endian, byte by byte, so every
 * hash is identical on any host.
 */

#ifndef MITTS_BASE_FNV_HH
#define MITTS_BASE_FNV_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

namespace mitts
{

class Fnv
{
  public:
    void
    bytes(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < len; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001B3ULL;
        }
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xFFu;
            h_ *= 0x100000001B3ULL;
        }
    }

    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void b(bool v) { u64(v ? 1 : 0); }

    /** The length, then the raw bytes. */
    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/** `v` as 16 lowercase hex digits. */
inline std::string
hex16(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string s(16, '0');
    for (int i = 15; i >= 0; --i, v >>= 4)
        s[static_cast<std::size_t>(i)] = digits[v & 0xFu];
    return s;
}

} // namespace mitts

#endif // MITTS_BASE_FNV_HH

/**
 * @file
 * Checkpoint-image surgery for corruption tests: read an image, patch
 * little-endian fields in one section's payload, and re-seal the
 * section and file CRCs so the edit gets past the format's own
 * validation and reaches the component checks behind it.
 */

#ifndef MITTS_TESTS_CKPT_EDIT_HH
#define MITTS_TESTS_CKPT_EDIT_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "ckpt/serialize.hh"

namespace mitts::ckpt_edit
{

inline std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

inline void
writeFile(const std::string &path, const std::string &img)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << img;
}

inline std::uint64_t
getLe(const std::string &s, std::size_t off, std::size_t n)
{
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i)
        v |= std::uint64_t{static_cast<unsigned char>(s[off + i])}
             << (8 * i);
    return v;
}

inline void
putLe(std::string &s, std::size_t off, std::uint64_t v, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        s[off + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

/** Apply `edit` to section `name`'s payload in checkpoint image
 *  `img` and re-seal the section and file CRCs. */
inline std::string
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

/** The payload of section `name` in a finished image. */
inline std::string
payloadOf(const std::string &img, const std::string &name)
{
    std::string payload;
    editSection(img, name, [&](std::string &p) { payload = p; });
    return payload;
}

} // namespace mitts::ckpt_edit

#endif // MITTS_TESTS_CKPT_EDIT_HH

#include "orchestrate/result_cache.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <sys/stat.h>
#include <unistd.h>

#include "base/fnv.hh"
#include "ckpt/serialize.hh"

namespace mitts::orchestrate
{

namespace
{

constexpr char kMagic[8] = {'M', 'I', 'T', 'T', 'S', 'R', 'E', 'S'};
constexpr std::uint32_t kCacheVersion = 1;

void
putU32(std::string &s, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        s.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
}

void
putU64(std::string &s, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        s.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
}

bool
getU32(const std::string &s, std::size_t &pos, std::uint32_t &out)
{
    if (pos > s.size() || s.size() - pos < 4)
        return false;
    out = 0;
    for (int i = 0; i < 4; ++i)
        out |= static_cast<std::uint32_t>(static_cast<unsigned char>(
                   s[pos + static_cast<std::size_t>(i)]))
               << (8 * i);
    pos += 4;
    return true;
}

bool
getU64(const std::string &s, std::size_t &pos, std::uint64_t &out)
{
    if (pos > s.size() || s.size() - pos < 8)
        return false;
    out = 0;
    for (int i = 0; i < 8; ++i)
        out |= static_cast<std::uint64_t>(static_cast<unsigned char>(
                   s[pos + static_cast<std::size_t>(i)]))
               << (8 * i);
    pos += 8;
    return true;
}

} // namespace

void
makeDirs(const std::string &dir)
{
    std::string path;
    std::istringstream is(dir);
    std::string part;
    if (!dir.empty() && dir[0] == '/')
        path.push_back('/');
    while (std::getline(is, part, '/')) {
        if (part.empty())
            continue;
        if (!path.empty() && path.back() != '/')
            path += '/';
        path += part;
        if (::mkdir(path.c_str(), 0777) != 0 && errno != EEXIST)
            throw std::runtime_error("mkdir " + path + ": " +
                                     std::strerror(errno));
        struct stat st
        {
        };
        if (::stat(path.c_str(), &st) != 0 || !S_ISDIR(st.st_mode))
            throw std::runtime_error(path + " is not a directory");
    }
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir))
{
    makeDirs(dir_);
}

std::string
ResultCache::entryPath(std::uint64_t key) const
{
    return dir_ + "/" + hex16(key) + ".res";
}

std::optional<std::string>
ResultCache::lookup(std::uint64_t key, const std::string &desc)
{
    std::ifstream in(entryPath(key), std::ios::binary);
    if (!in) {
        ++stats.misses;
        return std::nullopt;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string data = ss.str();

    auto reject = [this]() -> std::optional<std::string> {
        ++stats.rejected;
        ++stats.misses;
        return std::nullopt;
    };

    if (data.size() < 8 + 4 + 8 + 8 + 8 + 4)
        return reject();
    if (std::memcmp(data.data(), kMagic, 8) != 0)
        return reject();

    std::size_t pos = 8;
    std::uint32_t version = 0;
    std::uint64_t stored_key = 0, desc_len = 0, payload_len = 0;
    if (!getU32(data, pos, version) || version != kCacheVersion)
        return reject();
    if (!getU64(data, pos, stored_key) || stored_key != key)
        return reject();
    if (!getU64(data, pos, desc_len) ||
        data.size() - pos < desc_len)
        return reject();
    const std::string stored_desc = data.substr(pos, desc_len);
    pos += desc_len;
    if (!getU64(data, pos, payload_len) ||
        data.size() - pos < payload_len)
        return reject();
    std::string payload = data.substr(pos, payload_len);
    pos += payload_len;

    std::uint32_t stored_crc = 0;
    const std::size_t crc_pos = pos;
    if (!getU32(data, pos, stored_crc) || pos != data.size())
        return reject();
    if (ckpt::crc32(data.data(), crc_pos) != stored_crc)
        return reject();

    // Same key, different config: a genuine 64-bit collision or a
    // semantics change that kept the key. Never serve it.
    if (stored_desc != desc)
        return reject();

    ++stats.hits;
    return payload;
}

void
ResultCache::store(std::uint64_t key, const std::string &desc,
                   const std::string &payload)
{
    std::string data;
    data.reserve(40 + desc.size() + payload.size());
    data.append(kMagic, 8);
    putU32(data, kCacheVersion);
    putU64(data, key);
    putU64(data, desc.size());
    data += desc;
    putU64(data, payload.size());
    data += payload;
    putU32(data, ckpt::crc32(data.data(), data.size()));

    const std::string path = entryPath(key);
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            throw std::runtime_error("cannot write " + tmp);
        out.write(data.data(),
                  static_cast<std::streamsize>(data.size()));
        if (!out)
            throw std::runtime_error("short write to " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw std::runtime_error("rename " + tmp + " -> " + path +
                                 ": " + std::strerror(errno));
    }
}

} // namespace mitts::orchestrate

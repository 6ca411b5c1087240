#include "base/kv_text.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <limits>

namespace mitts
{

void
configFail(const std::string &ctx, const std::string &msg)
{
    throw ConfigError(ctx + ": " + msg);
}

std::string
trim(const std::string &s)
{
    const auto b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    const auto e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

std::vector<KvLine>
readKvLines(std::istream &in, const std::string &what)
{
    std::vector<KvLine> out;
    std::string line;
    unsigned lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        line = trim(line);
        if (line.empty())
            continue;
        const std::string where = what + ":" + std::to_string(lineno);
        const auto eq = line.find('=');
        KvLine kv{where, "", ""};
        if (eq != std::string::npos) {
            kv.key = trim(line.substr(0, eq));
            kv.value = trim(line.substr(eq + 1));
        }
        if (kv.key.empty() || kv.value.empty())
            configFail(where, "expected 'key = value'");
        out.push_back(std::move(kv));
    }
    return out;
}

std::uint64_t
parseU64(const std::string &ctx, const std::string &v)
{
    if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos)
        configFail(ctx, "expected a non-negative integer, got '" + v + "'");
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t n = 0;
    for (char c : v) {
        const auto d = static_cast<std::uint64_t>(c - '0');
        if (n > (kMax - d) / 10)
            configFail(ctx, "integer out of range: '" + v + "'");
        n = n * 10 + d;
    }
    return n;
}

unsigned
parseUnsigned(const std::string &ctx, const std::string &v)
{
    const std::uint64_t n = parseU64(ctx, v);
    if (n > std::numeric_limits<unsigned>::max())
        configFail(ctx, "integer out of range: '" + v + "'");
    return static_cast<unsigned>(n);
}

double
parseF64(const std::string &ctx, const std::string &v)
{
    char *end = nullptr;
    const double d = std::strtod(v.c_str(), &end);
    if (v.empty() || std::isspace(static_cast<unsigned char>(v[0])) ||
        end != v.c_str() + v.size() || !std::isfinite(d))
        configFail(ctx, "expected a finite number, got '" + v + "'");
    return d;
}

bool
parseBool(const std::string &ctx, const std::string &v)
{
    if (v == "on" || v == "true" || v == "yes" || v == "1")
        return true;
    if (v == "off" || v == "false" || v == "no" || v == "0")
        return false;
    configFail(ctx, "expected on/off, got '" + v + "'");
}

std::vector<std::string>
splitList(const std::string &ctx, const std::string &v, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        const auto pos = v.find(sep, start);
        out.push_back(trim(v.substr(start, pos - start)));
        if (out.back().empty())
            configFail(ctx, "empty item in list '" + v + "'");
        if (pos == std::string::npos)
            return out;
        start = pos + 1;
    }
}

} // namespace mitts

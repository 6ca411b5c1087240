/**
 * @file
 * The one reader for the repository's text configuration: cloud
 * scenario files, sweep specs and the CLI flag values of mitts_sim /
 * mitts_sweep.
 *
 * Files are `key = value` lines; `#` starts a comment, surrounding
 * blanks are trimmed and blank lines are skipped. Values go through
 * the checked parsers below, which are the only number/boolean/list
 * parsers in the tree. Every failure throws ConfigError whose text
 * starts with the caller's context: `what:line` for a file line, the
 * flag name for a CLI value.
 */

#ifndef MITTS_BASE_KV_TEXT_HH
#define MITTS_BASE_KV_TEXT_HH

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

namespace mitts
{

/** A malformed config file line or value ("ctx: msg"). */
class ConfigError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Throw ConfigError("ctx: msg"). */
[[noreturn]] void configFail(const std::string &ctx,
                             const std::string &msg);

/** One `key = value` line; `where` is "what:line" for errors. */
struct KvLine
{
    std::string where;
    std::string key;
    std::string value;
};

/**
 * Every non-blank line of `in` as a key/value pair; `what` names the
 * source. A line without `=`, or with an empty key or value, throws
 * "what:line: expected 'key = value'".
 */
std::vector<KvLine> readKvLines(std::istream &in, const std::string &what);

/** Leading/trailing blanks removed. */
std::string trim(const std::string &s);

/** Digits only (no sign, no blanks), must fit in 64 bits. */
std::uint64_t parseU64(const std::string &ctx, const std::string &v);

/** parseU64, range-checked into an `unsigned`. */
unsigned parseUnsigned(const std::string &ctx, const std::string &v);

/** A whole-token finite double (no nan/inf). */
double parseF64(const std::string &ctx, const std::string &v);

/** on/off, true/false, yes/no, 1/0. */
bool parseBool(const std::string &ctx, const std::string &v);

/** Split on `sep`, trimming items; an empty item is an error. */
std::vector<std::string> splitList(const std::string &ctx,
                                   const std::string &v, char sep = ',');

} // namespace mitts

#endif // MITTS_BASE_KV_TEXT_HH

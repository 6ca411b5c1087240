#include "system/config.hh"

#include <iterator>

#include "base/kv_text.hh"

namespace mitts
{

namespace
{

// schedulerName()/gateName() index the tables by enum value.
constexpr bool
registryInEnumOrder()
{
    for (std::size_t i = 0; i < std::size(kSchedulers); ++i)
        if (static_cast<std::size_t>(kSchedulers[i].kind) != i)
            return false;
    for (std::size_t i = 0; i < std::size(kGates); ++i)
        if (static_cast<std::size_t>(kGates[i].first) != i)
            return false;
    return true;
}
static_assert(registryInEnumOrder(),
              "kSchedulers/kGates rows must follow enum order");

} // namespace

std::vector<SchedulerKind>
allSchedulers()
{
    std::vector<SchedulerKind> out;
    for (const auto &s : kSchedulers)
        out.push_back(s.kind);
    return out;
}

SchedulerKind
schedulerFromName(const std::string &name)
{
    for (const auto &s : kSchedulers)
        if (name == s.cliName)
            return s.kind;
    throw ConfigError("unknown scheduler '" + name + "' (" +
                      schedulerNameList() + ")");
}

GateKind
gateFromName(const std::string &name)
{
    for (const auto &[kind, gate] : kGates)
        if (name == gate)
            return kind;
    throw ConfigError("unknown gate '" + name + "' (" + gateNameList() +
                      ")");
}

std::string
schedulerNameList()
{
    std::string out;
    for (const auto &s : kSchedulers)
        out.append(out.empty() ? "" : "|").append(s.cliName);
    return out;
}

std::string
gateNameList()
{
    std::string out;
    for (const auto &g : kGates)
        out.append(out.empty() ? "" : "|").append(g.second);
    return out;
}

} // namespace mitts

#include "cloud/scenario.hh"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <variant>

#include "base/fnv.hh"
#include "trace/app_profile.hh"

namespace mitts::cloud
{

namespace
{

/** A scenario field, by type; assign() parses a value into it. */
using Field = std::variant<std::string ScenarioConfig::*,
                           std::uint64_t ScenarioConfig::*,
                           unsigned ScenarioConfig::*,
                           double ScenarioConfig::*,
                           bool ScenarioConfig::*,
                           std::vector<std::string> ScenarioConfig::*,
                           std::vector<double> ScenarioConfig::*>;

const std::pair<const char *, Field> kKeys[] = {
    {"name", &ScenarioConfig::name},
    {"seed", &ScenarioConfig::seed},
    {"sockets", &ScenarioConfig::sockets},
    {"cores_per_socket", &ScenarioConfig::coresPerSocket},
    {"window", &ScenarioConfig::windowCycles},
    {"duration", &ScenarioConfig::durationCycles},
    {"arrivals_per_window", &ScenarioConfig::arrivalsPerWindow},
    {"mean_residency_windows", &ScenarioConfig::meanResidencyWindows},
    {"diurnal_period", &ScenarioConfig::diurnalPeriod},
    {"diurnal_min", &ScenarioConfig::diurnalMin},
    {"max_tenants", &ScenarioConfig::maxTenants},
    {"profiles", &ScenarioConfig::profiles},
    {"tier_weights", &ScenarioConfig::tierWeights},
    {"autoscaler", &ScenarioConfig::autoscaler},
    {"upgrade_stall_fraction", &ScenarioConfig::upgradeStallFraction},
    {"downgrade_stall_fraction", &ScenarioConfig::downgradeStallFraction},
    {"demand_stall_fraction", &ScenarioConfig::demandStallFraction},
    {"telemetry", &ScenarioConfig::telemetry},
    {"sample_interval", &ScenarioConfig::sampleInterval},
};

void
assign(std::string &f, const KvLine &kv)
{
    f = kv.value;
}

void
assign(std::uint64_t &f, const KvLine &kv)
{
    f = parseU64(kv.where, kv.value);
}

void
assign(unsigned &f, const KvLine &kv)
{
    f = parseUnsigned(kv.where, kv.value);
}

void
assign(double &f, const KvLine &kv)
{
    f = parseF64(kv.where, kv.value);
}

void
assign(bool &f, const KvLine &kv)
{
    f = parseBool(kv.where, kv.value);
}

void
assign(std::vector<std::string> &f, const KvLine &kv)
{
    f = splitList(kv.where, kv.value);
}

void
assign(std::vector<double> &f, const KvLine &kv)
{
    f.clear();
    for (const auto &w : splitList(kv.where, kv.value))
        f.push_back(parseF64(kv.where, w));
}

} // namespace

ScenarioConfig
parseScenario(std::istream &in, const std::string &what)
{
    ScenarioConfig sc;
    for (const KvLine &kv : readKvLines(in, what)) {
        const auto *key = std::find_if(
            std::begin(kKeys), std::end(kKeys),
            [&kv](const auto &k) { return kv.key == k.first; });
        if (key == std::end(kKeys))
            configFail(kv.where, "unknown key '" + kv.key + "'");
        std::visit([&](auto field) { assign(sc.*field, kv); },
                   key->second);
    }
    validateScenario(sc);
    return sc;
}

ScenarioConfig
parseScenarioFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw ScenarioError("cannot open scenario file: " + path);
    return parseScenario(in, path);
}

void
validateScenario(const ScenarioConfig &sc)
{
    const auto bad = [&](const std::string &msg) {
        throw ScenarioError("scenario '" + sc.name + "': " + msg);
    };
    if (sc.sockets == 0)
        bad("sockets must be >= 1");
    if (sc.coresPerSocket == 0)
        bad("cores_per_socket must be >= 1");
    if (sc.windowCycles == 0)
        bad("window must be >= 1");
    if (sc.durationCycles == 0 ||
        sc.durationCycles % sc.windowCycles != 0)
        bad("duration must be a positive multiple of window");
    if (sc.arrivalsPerWindow < 0)
        bad("arrivals_per_window must be >= 0");
    if (sc.meanResidencyWindows <= 0)
        bad("mean_residency_windows must be > 0");
    if (sc.diurnalMin <= 0 || sc.diurnalMin > 1)
        bad("diurnal_min must be in (0, 1]");
    if (sc.profiles.empty())
        bad("profiles must name at least one workload");
    for (const auto &p : sc.profiles) {
        if (p.empty())
            bad("empty profile name in profiles list");
        if (!hasAppProfile(p))
            bad("unknown profile '" + p + "'");
        // A slot is one core: multithreaded profiles are run
        // single-threaded (the engine forces numThreads = 1).
    }
    for (double w : sc.tierWeights) {
        if (w < 0)
            bad("tier_weights must be non-negative");
    }
    if (sc.upgradeStallFraction < 0 || sc.upgradeStallFraction > 1 ||
        sc.downgradeStallFraction < 0 ||
        sc.downgradeStallFraction > 1 ||
        sc.demandStallFraction < 0 || sc.demandStallFraction > 1)
        bad("stall fractions must be in [0, 1]");
    if (sc.sampleInterval == 0)
        bad("sample_interval must be >= 1");
}

std::uint64_t
scenarioHash(const ScenarioConfig &sc)
{
    Fnv h;
    // Strings go in as their length plus one word per character.
    const auto mixs = [&h](const std::string &s) {
        h.u64(s.size());
        for (char c : s)
            h.u64(static_cast<unsigned char>(c));
    };
    mixs(sc.name);
    h.u64(sc.seed);
    h.u64(sc.sockets);
    h.u64(sc.coresPerSocket);
    h.u64(sc.windowCycles);
    h.u64(sc.durationCycles);
    h.f64(sc.arrivalsPerWindow);
    h.f64(sc.meanResidencyWindows);
    h.u64(sc.diurnalPeriod);
    h.f64(sc.diurnalMin);
    h.u64(sc.maxTenants);
    h.u64(sc.profiles.size());
    for (const auto &p : sc.profiles)
        mixs(p);
    h.u64(sc.tierWeights.size());
    for (double w : sc.tierWeights)
        h.f64(w);
    h.b(sc.autoscaler);
    h.f64(sc.upgradeStallFraction);
    h.f64(sc.downgradeStallFraction);
    h.f64(sc.demandStallFraction);
    h.b(sc.telemetry);
    h.u64(sc.sampleInterval);
    return h.value();
}

} // namespace mitts::cloud

#include "orchestrate/sweep_spec.hh"

#include <fstream>
#include <limits>
#include <sstream>

#include "base/fnv.hh"
#include "base/kv_text.hh"
#include "cache/cache_array.hh"
#include "ckpt/config_hash.hh"
#include "trace/app_profile.hh"

namespace mitts::orchestrate
{

namespace
{

std::vector<std::uint32_t>
parseBins(const std::string &ctx, const std::string &v)
{
    std::vector<std::uint32_t> bins;
    for (const auto &tok : splitList(ctx, v, ':'))
        bins.push_back(parseUnsigned(ctx, tok));
    return bins;
}

/** llc-kb must give the default LLC a power-of-two set count. */
std::uint64_t
checkLlcKb(const std::string &ctx, std::uint64_t kb)
{
    const char *bad = kb > (std::numeric_limits<std::size_t>::max() >> 10)
                          ? "out of range"
                          : cacheGeometryError(kb * 1024, LlcConfig{}.assoc);
    if (bad)
        configFail(ctx, "llc-kb " + std::to_string(kb) + ": " + bad);
    return kb;
}

/** Parse every item of an axis list with `parse`. */
template <typename Parse>
auto
parseAxis(const KvLine &kv, Parse parse)
{
    std::vector<decltype(parse(kv.value))> out;
    for (const auto &item : splitList(kv.where, kv.value))
        out.push_back(parse(item));
    return out;
}

std::string
binsToString(const std::vector<std::uint32_t> &bins)
{
    if (bins.empty())
        return "-";
    std::string s;
    for (std::size_t i = 0; i < bins.size(); ++i) {
        if (i)
            s += ':';
        s += std::to_string(bins[i]);
    }
    return s;
}

} // namespace

SweepSpec
parseSweep(std::istream &in, const std::string &what)
{
    SweepSpec spec;
    for (const KvLine &kv : readKvLines(in, what)) {
        const std::string &ctx = kv.where;
        const std::string &value = kv.value;
        const auto u64 = [&ctx](const std::string &v) {
            return parseU64(ctx, v);
        };
        if (kv.key.rfind("sweep ", 0) == 0) {
            const std::string axis = trim(kv.key.substr(6));
            if (axis == "sched") {
                spec.schedAxis = splitList(ctx, value);
            } else if (axis == "seed") {
                spec.seedAxis = parseAxis(kv, u64);
            } else if (axis == "bins") {
                spec.binsAxis = parseAxis(kv, [&ctx](const std::string &v) {
                    return parseBins(ctx, v);
                });
            } else if (axis == "llc-kb") {
                spec.llcKbAxis = parseAxis(kv, [&ctx](const std::string &v) {
                    return checkLlcKb(ctx, parseU64(ctx, v));
                });
            } else if (axis == "instr") {
                spec.instrAxis = parseAxis(kv, u64);
            } else {
                configFail(ctx, "unknown sweep axis '" + axis +
                                    "' (sched, seed, bins, llc-kb, instr)");
            }
            continue;
        }

        const std::string &key = kv.key;
        if (key == "name") {
            spec.name = value;
        } else if (key == "mode") {
            if (value != "grid" && value != "tune")
                configFail(ctx, "mode must be grid or tune, not '" + value +
                                    "'");
            spec.mode = value == "grid" ? SweepMode::Grid : SweepMode::Tune;
        } else if (key == "apps") {
            spec.apps = splitList(ctx, value);
        } else if (key == "instr") {
            spec.instr = u64(value);
        } else if (key == "max-cycles") {
            spec.maxCycles = u64(value);
        } else if (key == "llc-kb") {
            spec.llcKb = checkLlcKb(ctx, u64(value));
        } else if (key == "seed") {
            spec.seed = u64(value);
        } else if (key == "gate") {
            if (value != gateName(GateKind::None) &&
                value != gateName(GateKind::Mitts))
                configFail(ctx, "gate must be none or mitts, not '" +
                                    value + "'");
            spec.gate = gateFromName(value);
        } else if (key == "objective") {
            if (value != "throughput" && value != "fairness")
                configFail(ctx, "objective must be throughput or fairness");
            spec.objective = value == "fairness" ? Objective::Fairness
                                                 : Objective::Throughput;
        } else if (key == "generations") {
            spec.generations = parseUnsigned(ctx, value);
        } else if (key == "population") {
            spec.population = parseUnsigned(ctx, value);
        } else if (key == "ga-seed") {
            spec.gaSeed = u64(value);
        } else if (key == "prefilter") {
            spec.prefilter = parseBool(ctx, value);
        } else if (key == "warmup") {
            spec.warmupInstr = u64(value);
        } else {
            configFail(ctx, "unknown key '" + key + "'");
        }
    }
    return spec;
}

SweepSpec
parseSweepFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw SweepError("cannot open sweep file " + path);
    return parseSweep(in, path);
}

void
validateSweep(const SweepSpec &spec)
{
    if (spec.apps.empty())
        throw SweepError("sweep needs at least one app");
    for (const auto &a : spec.apps)
        if (!hasAppProfile(a))
            throw SweepError("unknown app profile '" + a + "'");
    if (spec.instr == 0 || spec.maxCycles == 0)
        throw SweepError("instr and max-cycles must be positive");
    checkLlcKb("llc-kb", spec.llcKb);
    for (const auto &s : spec.schedAxis)
        schedulerFromName(s); // throws on unknown
    for (const auto v : spec.instrAxis)
        if (v == 0)
            throw SweepError("instr axis values must be positive");
    for (const auto v : spec.llcKbAxis)
        checkLlcKb("sweep llc-kb", v);

    const BinSpec bin_spec; // default geometry
    for (const auto &bins : spec.binsAxis)
        if (bins.size() != bin_spec.numBins)
            throw SweepError(
                "bins axis value has " +
                std::to_string(bins.size()) + " credits, expected " +
                std::to_string(bin_spec.numBins));
    if (!spec.binsAxis.empty() && spec.gate != GateKind::Mitts)
        throw SweepError("a bins axis requires gate = mitts");

    if (spec.mode == SweepMode::Tune) {
        if (!spec.schedAxis.empty() || !spec.seedAxis.empty() ||
            !spec.binsAxis.empty() || !spec.llcKbAxis.empty() ||
            !spec.instrAxis.empty())
            throw SweepError("sweep axes are grid-mode only");
        if (spec.generations == 0 || spec.population == 0)
            throw SweepError(
                "generations and population must be positive");
        if (spec.warmupInstr >= spec.instr)
            if (spec.warmupInstr != 0)
                throw SweepError("warmup must be below instr");
    }
}

std::string
specToText(const SweepSpec &spec)
{
    std::ostringstream os;
    os << "name = " << spec.name << "\n";
    os << "mode = "
       << (spec.mode == SweepMode::Grid ? "grid" : "tune") << "\n";
    os << "apps = ";
    for (std::size_t i = 0; i < spec.apps.size(); ++i)
        os << (i ? "," : "") << spec.apps[i];
    os << "\n";
    os << "instr = " << spec.instr << "\n";
    os << "max-cycles = " << spec.maxCycles << "\n";
    os << "llc-kb = " << spec.llcKb << "\n";
    os << "seed = " << spec.seed << "\n";
    os << "gate = " << gateName(spec.gate) << "\n";
    os << "objective = "
       << (spec.objective == Objective::Fairness ? "fairness"
                                                 : "throughput")
       << "\n";
    os << "generations = " << spec.generations << "\n";
    os << "population = " << spec.population << "\n";
    os << "ga-seed = " << spec.gaSeed << "\n";
    os << "prefilter = " << (spec.prefilter ? 1 : 0) << "\n";
    os << "warmup = " << spec.warmupInstr << "\n";

    auto axisU64 = [&os](const char *key,
                         const std::vector<std::uint64_t> &vals) {
        if (vals.empty())
            return;
        os << "sweep " << key << " = ";
        for (std::size_t i = 0; i < vals.size(); ++i)
            os << (i ? "," : "") << vals[i];
        os << "\n";
    };
    if (!spec.schedAxis.empty()) {
        os << "sweep sched = ";
        for (std::size_t i = 0; i < spec.schedAxis.size(); ++i)
            os << (i ? "," : "") << spec.schedAxis[i];
        os << "\n";
    }
    axisU64("seed", spec.seedAxis);
    if (!spec.binsAxis.empty()) {
        os << "sweep bins = ";
        for (std::size_t i = 0; i < spec.binsAxis.size(); ++i)
            os << (i ? "," : "") << binsToString(spec.binsAxis[i]);
        os << "\n";
    }
    axisU64("llc-kb", spec.llcKbAxis);
    axisU64("instr", spec.instrAxis);
    return os.str();
}

unsigned
specNumCores(const SweepSpec &spec)
{
    unsigned cores = 0;
    for (const auto &a : spec.apps)
        cores += appProfile(a).numThreads;
    return cores;
}

std::uint64_t
unitCount(const SweepSpec &spec)
{
    auto len = [](std::size_t n) {
        return n ? static_cast<std::uint64_t>(n) : 1ull;
    };
    return len(spec.schedAxis.size()) * len(spec.seedAxis.size()) *
           len(spec.binsAxis.size()) * len(spec.llcKbAxis.size()) *
           len(spec.instrAxis.size());
}

UnitSpec
unitAt(const SweepSpec &spec, std::uint64_t index)
{
    MITTS_ASSERT(index < unitCount(spec), "unit index out of range");
    UnitSpec u;
    u.index = index;
    u.seed = spec.seed;
    u.llcKb = spec.llcKb;
    u.instr = spec.instr;

    // Row-major decomposition, last axis fastest.
    auto next = [&index](std::size_t n) -> std::size_t {
        if (!n)
            return 0;
        const std::size_t i =
            static_cast<std::size_t>(index % n);
        index /= n;
        return i;
    };
    const std::size_t i_instr = next(spec.instrAxis.size());
    const std::size_t i_llc = next(spec.llcKbAxis.size());
    const std::size_t i_bins = next(spec.binsAxis.size());
    const std::size_t i_seed = next(spec.seedAxis.size());
    const std::size_t i_sched = next(spec.schedAxis.size());

    if (!spec.schedAxis.empty())
        u.sched = schedulerFromName(spec.schedAxis[i_sched]);
    if (!spec.seedAxis.empty())
        u.seed = spec.seedAxis[i_seed];
    if (!spec.binsAxis.empty())
        u.bins = spec.binsAxis[i_bins];
    if (!spec.llcKbAxis.empty())
        u.llcKb = spec.llcKbAxis[i_llc];
    if (!spec.instrAxis.empty())
        u.instr = spec.instrAxis[i_instr];
    return u;
}

SystemConfig
unitConfig(const SweepSpec &spec, const UnitSpec &unit)
{
    SystemConfig cfg = SystemConfig::multiProgram(spec.apps);
    cfg.llc.sizeBytes = unit.llcKb * 1024;
    cfg.sched = unit.sched;
    cfg.seed = unit.seed;
    cfg.gate = spec.gate;
    if (spec.gate == GateKind::Mitts && !unit.bins.empty()) {
        const unsigned cores = specNumCores(spec);
        cfg.mittsConfigs.assign(
            cores, BinConfig(cfg.binSpec, unit.bins));
    }
    return cfg;
}

SystemConfig
tuneBaseConfig(const SweepSpec &spec)
{
    SystemConfig cfg = SystemConfig::multiProgram(spec.apps);
    cfg.llc.sizeBytes = spec.llcKb * 1024;
    cfg.seed = spec.seed;
    cfg.gate = GateKind::Mitts;
    return cfg;
}

std::string
unitDesc(const SweepSpec &spec, const UnitSpec &unit)
{
    std::ostringstream os;
    os << "unit " << unit.index << " sched="
       << schedulerCliName(unit.sched) << " seed=" << unit.seed
       << " bins=" << binsToString(unit.bins)
       << " llc_kb=" << unit.llcKb << " instr=" << unit.instr
       << " cfg=" << hex16(ckpt::configHash(unitConfig(spec, unit)));
    return os.str();
}

std::uint64_t
unitCacheKey(const SweepSpec &spec, const UnitSpec &unit)
{
    Fnv h;
    h.u64(kRecordVersion);
    h.u64(ckpt::configHash(unitConfig(spec, unit)));
    h.u64(unit.instr);
    h.u64(spec.maxCycles);
    return h.value();
}

} // namespace mitts::orchestrate

#include "orchestrate/worker.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "base/fnv.hh"
#include "ckpt/config_hash.hh"
#include "orchestrate/frame.hh"
#include "system/runner.hh"
#include "tuner/offline_tuner.hh"

namespace mitts::orchestrate
{

namespace
{

/** Shortest round-trip-exact double formatting (house %.17g). */
std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

SystemConfig
genomeConfig(const SweepSpec &spec, const Genome &g)
{
    SystemConfig cfg = tuneBaseConfig(spec);
    cfg.mittsConfigs =
        genomeToConfigs(g, cfg.binSpec, specNumCores(spec));
    return cfg;
}

bool
fileExists(const std::string &path)
{
    std::ifstream f(path);
    return static_cast<bool>(f);
}

} // namespace

std::uint64_t
genomeCacheKey(const SweepSpec &spec, const Genome &g)
{
    Fnv h;
    h.u64(kRecordVersion);
    h.u64(ckpt::configHash(genomeConfig(spec, g)));
    h.u64(static_cast<std::uint64_t>(spec.objective));
    h.u64(spec.warmupInstr);
    h.u64(spec.instr);
    h.u64(spec.maxCycles);
    return h.value();
}

std::string
genomeDesc(const SweepSpec &spec, const Genome &g)
{
    std::ostringstream os;
    os << "genome obj=" << objectiveName(spec.objective)
       << " warmup=" << spec.warmupInstr << " instr=" << spec.instr
       << " cfg=" << hex16(ckpt::configHash(genomeConfig(spec, g)))
       << " credits=";
    for (std::size_t i = 0; i < g.size(); ++i)
        os << (i ? ":" : "") << g[i];
    return os.str();
}

std::string
fitnessToPayload(double fitness)
{
    return hex16(std::bit_cast<std::uint64_t>(fitness));
}

bool
fitnessFromPayload(const std::string &payload, double &out)
{
    if (payload.size() != 16)
        return false;
    try {
        std::size_t pos = 0;
        const std::uint64_t bits = std::stoull(payload, &pos, 16);
        if (pos != payload.size())
            return false;
        out = std::bit_cast<double>(bits);
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

WorkerContext::WorkerContext(SweepSpec spec,
                             const std::string &cache_dir)
    : spec_(std::move(spec)), cache_(cache_dir)
{
}

std::vector<Tick>
WorkerContext::aloneFor(const SystemConfig &cfg, std::uint64_t instr)
{
    const RunnerOptions opts{instr, spec_.maxCycles};
    std::vector<Tick> alone(cfg.apps.size(), 0);
    for (unsigned a = 0; a < cfg.apps.size(); ++a) {
        const SystemConfig acfg = aloneConfig(cfg, a);
        Fnv h;
        h.u64(kRecordVersion);
        h.u64(ckpt::configHash(acfg));
        h.u64(instr);
        h.u64(spec_.maxCycles);
        const std::uint64_t key = h.value();

        const auto memo = aloneMemo_.find(key);
        if (memo != aloneMemo_.end()) {
            alone[a] = memo->second[0];
            continue;
        }

        const std::string desc =
            "alone app=" + cfg.apps[a] + " instr=" +
            std::to_string(instr) + " max_cycles=" +
            std::to_string(spec_.maxCycles) + " cfg=" +
            hex16(ckpt::configHash(acfg));

        Tick cycles = 0;
        bool have = false;
        if (auto hit = cache_.lookup(key, desc)) {
            try {
                std::size_t pos = 0;
                cycles = std::stoull(*hit, &pos, 10);
                have = pos == hit->size();
            } catch (const std::exception &) {
                have = false;
            }
        }
        if (!have) {
            cycles = runAlone(cfg, a, opts);
            cache_.store(key, desc, std::to_string(cycles));
        }
        aloneMemo_[key] = {cycles};
        alone[a] = cycles;
    }
    return alone;
}

std::string
WorkerContext::evaluateUnit(std::uint64_t index)
{
    const UnitSpec unit = unitAt(spec_, index);
    const SystemConfig cfg = unitConfig(spec_, unit);
    const RunnerOptions opts{unit.instr, spec_.maxCycles};
    const std::vector<Tick> alone = aloneFor(cfg, unit.instr);
    const MultiOutcome out = runMulti(cfg, alone, opts);

    std::ostringstream os;
    os << unitDesc(spec_, unit) << "\n";
    for (std::size_t a = 0; a < out.results.size(); ++a) {
        os << "app " << out.results[a].name
           << " alone=" << alone[a]
           << " shared=" << out.results[a].completedAt
           << " completed=" << (out.results[a].completed ? 1 : 0)
           << " slowdown=" << fmtDouble(out.metrics.slowdowns[a])
           << "\n";
    }
    os << "metrics savg=" << fmtDouble(out.metrics.savg)
       << " smax=" << fmtDouble(out.metrics.smax)
       << " ws=" << fmtDouble(out.metrics.weightedSpeedup)
       << " hs=" << fmtDouble(out.metrics.harmonicSpeedup) << "\n\n";
    return os.str();
}

SystemConfig
WorkerContext::warmConfig() const
{
    SystemConfig cfg = tuneBaseConfig(spec_);
    cfg.mittsConfigs.assign(
        specNumCores(spec_),
        BinConfig::uniform(cfg.binSpec, cfg.binSpec.maxCredits));
    return cfg;
}

std::string
WorkerContext::warmCheckpointPath()
{
    if (spec_.warmupInstr == 0)
        return "";
    const SystemConfig warm = warmConfig();
    const std::string path =
        cache_.dir() + "/ckpt_" +
        hex16(ckpt::prefixConfigHash(warm)) + "_" +
        std::to_string(spec_.warmupInstr) + ".ckpt";
    if (fileExists(path))
        return path;
    System sys(warm);
    sys.runUntilInstructions(spec_.warmupInstr, spec_.maxCycles);
    // Concurrent cold-cache workers race to publish this image. Each
    // saves under a process-unique name (saveCheckpoint's own temp
    // file would collide); losing the final rename is benign because
    // every racer serializes identical bytes.
    const std::string mine = path + "." + std::to_string(::getpid());
    sys.saveCheckpoint(mine); // atomic temp + rename
    if (std::rename(mine.c_str(), path.c_str()) != 0) {
        std::remove(mine.c_str());
        if (!fileExists(path))
            throw std::runtime_error(
                "cannot publish warm checkpoint '" + path + "'");
    }
    return path;
}

double
WorkerContext::evaluateGenome(const Genome &g)
{
    const SystemConfig base = tuneBaseConfig(spec_);
    const std::vector<Tick> alone = aloneFor(base, spec_.instr);
    const RunnerOptions opts{spec_.instr, spec_.maxCycles};
    const unsigned cores = specNumCores(spec_);
    const auto configs = genomeToConfigs(g, base.binSpec, cores);

    MultiProgramMetrics metrics;
    if (spec_.warmupInstr == 0) {
        SystemConfig cfg = base;
        cfg.mittsConfigs = configs;
        metrics = runMulti(cfg, alone, opts).metrics;
    } else {
        // Shared prefix: every genome's run restores the same
        // unshaped warm image, then switches the shapers to the
        // candidate bins mid-run. Deterministic per (image, genome);
        // the final winner is re-evaluated cold by the tuner.
        const std::string path = warmCheckpointPath();
        System sys(warmConfig());
        sys.restoreCheckpoint(path);
        for (unsigned c = 0; c < cores; ++c)
            sys.setShaperConfig(c, configs[c]);
        const auto results =
            sys.runUntilInstructions(spec_.instr, spec_.maxCycles);
        metrics = computeMetrics(results, alone);
    }

    const double metric = spec_.objective == Objective::Throughput
                              ? metrics.savg
                              : metrics.smax;
    return 1.0 / std::max(1e-9, metric);
}

int
workerMain(int in_fd, int out_fd)
{
    Frame f;
    try {
        if (!readFrame(in_fd, f) || f.type != MsgType::Init) {
            std::fprintf(stderr,
                         "mitts_sweep worker: expected Init frame\n");
            return 1;
        }
        std::size_t pos = 0;
        const std::string spec_text = getStr(f.payload, pos);
        const std::string cache_dir = getStr(f.payload, pos);

        std::istringstream is(spec_text);
        SweepSpec spec = parseSweep(is, "<init>");
        validateSweep(spec);
        WorkerContext ctx(std::move(spec), cache_dir);

        // Crash-injection hook for the retry tests: die hard (once)
        // when asked to evaluate a specific unit, unless the marker
        // file left by the first crash already exists.
        const char *crash_env =
            std::getenv("MITTS_SWEEP_TEST_CRASH_UNIT");
        const char *marker_env =
            std::getenv("MITTS_SWEEP_TEST_CRASH_MARKER");
        const bool crash_armed = crash_env && marker_env;
        const std::uint64_t crash_unit =
            crash_armed ? std::strtoull(crash_env, nullptr, 10) : 0;

        while (readFrame(in_fd, f)) {
            if (f.type == MsgType::Shutdown)
                return 0;
            pos = 0;
            const std::uint64_t id = getU64(f.payload, pos);
            std::string reply;
            putU64(reply, id);
            try {
                if (f.type == MsgType::Unit) {
                    if (crash_armed && id == crash_unit &&
                        !fileExists(marker_env)) {
                        std::ofstream(marker_env).put('x');
                        std::_Exit(9);
                    }
                    reply += ctx.evaluateUnit(id);
                } else if (f.type == MsgType::Genome) {
                    Genome g;
                    const std::uint32_t n = getU32(f.payload, pos);
                    g.reserve(n);
                    for (std::uint32_t i = 0; i < n; ++i)
                        g.push_back(getU32(f.payload, pos));
                    putU64(reply,
                           std::bit_cast<std::uint64_t>(
                               ctx.evaluateGenome(g)));
                } else {
                    throw FrameError("unexpected frame type");
                }
            } catch (const std::exception &e) {
                std::string err;
                putU64(err, id);
                err += e.what();
                if (!writeFrame(out_fd, MsgType::Error, err))
                    return 1;
                continue;
            }
            if (!writeFrame(out_fd, MsgType::Result, reply))
                return 1; // parent went away
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mitts_sweep worker: %s\n", e.what());
        return 1;
    }
}

} // namespace mitts::orchestrate

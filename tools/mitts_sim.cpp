/**
 * @file
 * Command-line driver: build a system from flags, run it, report.
 *
 *   mitts_sim --apps gcc,mcf,bzip,sjeng --sched tcm --instr 200000
 *   mitts_sim --apps mcf --gate mitts --bins 40,0,0,0,0,0,0,0,0,25
 *   mitts_sim --apps mcf,libquantum --gate mitts --tune fairness
 *   mitts_sim --scenario scenarios/ci-small.scn --scenario-out out
 *
 * Each flag is one kFlags row: parsing, --help and the mode checks.
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "analytic/analytic_model.hh"
#include "base/kv_text.hh"
#include "cache/cache_array.hh"
#include "ckpt/serialize.hh"
#include "cloud/engine.hh"
#include "system/runner.hh"
#include "system/system.hh"
#include "tuner/offline_tuner.hh"

using namespace mitts;

namespace
{

constexpr const char *kToolVersion = "1.4.0";

/** Everything the flags set. */
struct Options
{
    SystemConfig cfg;
    std::uint64_t instr = 200'000, cycles = 0, ckptEvery = 0, until = 0;
    bool stats = false, analytic = false, prefilter = false;
    std::optional<Objective> tune;
    std::string ckptOut, restore, scenario, scenarioOut;
    std::vector<std::uint32_t> bins;
    double staticGbps = 0.0;
};

// Flag::modes bits: accepted in single-system runs, accepted with
// --scenario, rejected with --backend analytic.
enum : unsigned { kSingle = 1, kScenario = 2, kCycleOnly = 4, kTelOn = 8 };
constexpr unsigned kBoth = kSingle | kScenario;
/** The telemetry flags, each of which also switches telemetry on. */
constexpr unsigned kTelemetry = kSingle | kCycleOnly | kTelOn;

struct Flag
{
    const char *name;
    const char *arg; ///< value placeholder; nullptr = a switch
    unsigned modes;
    const char *help;
    void (*apply)(Options &o, const char *flag, const std::string &v);
};

[[noreturn]] void usage(int code);

/** A one-line reason on stderr (scripts key on it), exit 2. */
[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "mitts_sim: %s (see --help)\n", msg.c_str());
    std::exit(2);
}

std::uint64_t
positive(const char *flag, const std::string &v)
{
    const std::uint64_t n = parseU64(flag, v);
    if (n == 0)
        configFail(flag, "must be a positive integer, got '0'");
    return n;
}

/** Whether `v` is `b` rather than `a`; ConfigError if neither. */
bool
oneOf(const char *flag, const std::string &v, const char *a, const char *b)
{
    if (v != a && v != b)
        configFail(flag, std::string("expects ") + a + " or " + b +
                             ", got '" + v + "'");
    return v == b;
}

// Short aliases keep the table's lambda signatures on one line.
using O = Options;
using F = const char *;
using S = const std::string &;
const Flag kFlags[] = {
    {"--apps", "a,b,c", kSingle, "application mix (see --list-apps); required",
     [](O &o, F f, S v) { o.cfg.apps = splitList(f, v); }},
    {"--backend", "B", kSingle, "cycle (default) | analytic (closed-form)",
     [](O &o, F f, S v) { o.analytic = oneOf(f, v, "cycle", "analytic"); }},
    {"--sched", "NAME", kSingle, "memory scheduler (list below)",
     [](O &o, F, S v) { o.cfg.sched = schedulerFromName(v); }},
    {"--gate", "KIND", kSingle, "source gate (list below)",
     [](O &o, F, S v) { o.cfg.gate = gateFromName(v); }},
    {"--bins", "k0,..,k9", kSingle, "MITTS credits per core (implies mitts)",
     [](O &o, F f, S v) {
         o.cfg.gate = GateKind::Mitts;
         o.bins.clear();
         for (const auto &tok : splitList(f, v))
             o.bins.push_back(parseUnsigned(f, tok));
         if (o.bins.size() != o.cfg.binSpec.numBins)
             configFail(f, "expects one credit per bin, got '" + v + "'");
     }},
    {"--static-gbps", "G", kSingle, "per-core static rate limit in GB/s",
     [](O &o, F f, S v) {
         o.cfg.gate = GateKind::Static;
         o.staticGbps = parseF64(f, v);
         if (o.staticGbps <= 0.0)
             configFail(f, "expects a positive number, got '" + v + "'");
     }},
    {"--tune", "OBJ", kSingle | kCycleOnly, "offline GA: throughput|fairness",
     [](O &o, F f, S v) {
         const bool fair = oneOf(f, v, "throughput", "fairness");
         o.tune = fair ? Objective::Fairness : Objective::Throughput;
         o.cfg.gate = GateKind::Mitts;
     }},
    {"--prefilter", nullptr, kSingle, "--tune simulates the analytic top half",
     [](O &o, F, S) { o.prefilter = true; }},
    {"--instr", "N", kSingle, "instructions per core (default 200000)",
     [](O &o, F f, S v) { o.instr = positive(f, v); }},
    {"--cycles", "N", kSingle | kCycleOnly, "run a fixed cycle count instead",
     [](O &o, F f, S v) { o.cycles = positive(f, v); }},
    {"--llc", "BYTES", kSingle, "shared LLC size (default 1MiB; k/m ok)",
     [](O &o, F f, S v) {
         const int unit = v.empty() ? 0 : std::tolower(v.back());
         const double mul = unit == 'k' ? 1 << 10 : unit == 'm' ? 1 << 20 : 1;
         const double bytes =
             parseF64(f, mul > 1 ? v.substr(0, v.size() - 1) : v) * mul;
         if (!(bytes > 0.0 && bytes < 1e15))
             configFail(f, "expected a positive size, got '" + v + "'");
         o.cfg.llc.sizeBytes = static_cast<std::size_t>(bytes);
         if (const char *bad = cacheGeometryError(o.cfg.llc.sizeBytes,
                                                  o.cfg.llc.assoc))
             configFail(f, "'" + v + "': " + bad);
     }},
    {"--noc", "WxH", kSingle, "enable the mesh NoC with these dimensions",
     [](O &o, F f, S v) {
         const auto dims = splitList(f, v, 'x');
         if (dims.size() != 2)
             configFail(f, "expects WxH, got '" + v + "'");
         o.cfg.noc.enabled = true;
         o.cfg.noc.width = parseUnsigned(f, dims[0]);
         o.cfg.noc.height = parseUnsigned(f, dims[1]);
         if (o.cfg.noc.width == 0 || o.cfg.noc.height == 0)
             configFail(f, "dimensions must be positive, got '" + v + "'");
     }},
    {"--seed", "S", kSingle, "simulation seed (default 12345)",
     [](O &o, F f, S v) { o.cfg.seed = parseU64(f, v); }},
    {"--stats", nullptr, kBoth | kCycleOnly, "dump component statistics",
     [](O &o, F, S) { o.stats = true; }},
    {"--no-skip", nullptr, kBoth | kCycleOnly, "disable skip-ahead",
     [](O &o, F, S) { o.cfg.sim.skipAhead = false; }},
    {"--telemetry-out", "D", kTelemetry, "write time-series CSV (+trace) to D",
     [](O &o, F, S v) { o.cfg.telemetry.outDir = v; }},
    {"--sample-interval", "N", kTelemetry, "telemetry window (default 10000)",
     [](O &o, F f, S v) { o.cfg.telemetry.sampleInterval = positive(f, v); }},
    {"--trace-events", nullptr, kTelemetry, "also emit Chrome trace JSON",
     [](O &o, F, S) { o.cfg.telemetry.traceEvents = true; }},
    {"--checkpoint-out", "D", kBoth | kCycleOnly, "write checkpoints to D",
     [](O &o, F, S v) { o.ckptOut = v; }},
    {"--checkpoint-every", "N", kBoth | kCycleOnly, "also every N cycles",
     [](O &o, F f, S v) { o.ckptEvery = positive(f, v); }},
    {"--restore", "FILE", kBoth | kCycleOnly, "resume an identical run",
     [](O &o, F, S v) { o.restore = v; }},
    {"--scenario", "FILE", kScenario, "run a cloud scenario (checkpoint dirs)",
     [](O &o, F, S v) { o.scenario = v; }},
    {"--scenario-out", "D", kScenario, "write billing/summary/telemetry to D",
     [](O &o, F, S v) { o.scenarioOut = v; }},
    {"--scenario-until", "N", kScenario, "stop at cycle N (window multiple)",
     [](O &o, F f, S v) { o.until = positive(f, v); }},
    {"--list-apps", nullptr, kSingle, "print the workload registry and exit",
     [](O &, F, S) {
         for (const auto &n : allProfileNames())
             std::printf("%-14s threads=%u ws=%lluKiB\n", n.c_str(),
                         appProfile(n).numThreads,
                         static_cast<unsigned long long>(
                             appProfile(n).workingSetBytes / 1024));
         std::exit(0);
     }},
    {"--version", nullptr, kSingle, "print versions and exit", [](O &, F, S) {
         std::printf("mitts_sim %s (checkpoint format v%u)\n", kToolVersion,
                     ckpt::kFormatVersion);
         std::exit(0);
     }},
    {"--help", nullptr, kBoth, "this text", [](O &, F, S) { usage(0); }},
};

void
usage(int code)
{
    std::printf("mitts_sim - MITTS multicore memory-system simulator\n\n");
    for (const Flag &f : kFlags) {
        const std::string arg = f.arg ? f.arg : "";
        std::printf("  %-18s %s%s%s\n", (f.name + (" " + arg)).c_str(), f.help,
                    (f.modes & kBoth) == kBoth ? " [+scenario]" : "",
                    f.modes & kCycleOnly ? " [cycle-only]" : "");
    }
    std::printf(R"(
[+scenario]: also accepted with --scenario (which takes only these and
the --scenario-* flags); [cycle-only]: rejected by --backend analytic.
schedulers: %s
gates:      %s

exit codes: 0 success; 1 configuration or runtime error (unknown app,
bad scenario file); 2 usage error (unknown flag or name, malformed
value, conflicting flags) or a bad checkpoint, with a one-line reason
on stderr.
)",
                schedulerNameList().c_str(), gateNameList().c_str());
    std::exit(code);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    const bool scenario =
        std::find(argv + 1, argv + argc, std::string("--scenario")) !=
        argv + argc;
    const char *cycle_only = nullptr;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const Flag *f = std::find_if(
            std::begin(kFlags), std::end(kFlags),
            [&arg](const Flag &fl) { return arg == fl.name; });
        if (f == std::end(kFlags))
            usageError("unknown flag: " + arg);
        if (!(f->modes & (scenario ? kScenario : kSingle)))
            usageError(scenario ? "--scenario cannot be combined with " + arg
                                : arg + " only applies with --scenario");
        if (f->arg && i + 1 >= argc)
            usageError(arg + " needs a value");
        try {
            f->apply(o, f->name, f->arg ? argv[++i] : "");
        } catch (const ConfigError &e) {
            usageError(e.what());
        }
        if ((f->modes & kCycleOnly) && !cycle_only)
            cycle_only = f->name;
        if (f->modes & kTelOn)
            o.cfg.telemetry.enabled = true;
    }
    if (o.ckptEvery > 0 && o.ckptOut.empty())
        usageError("--checkpoint-every needs --checkpoint-out");
    if (scenario)
        return o;
    if (o.cfg.apps.empty())
        usageError("--apps is required");
    if (o.tune && (!o.ckptOut.empty() || !o.restore.empty()))
        usageError("--tune cannot be combined with checkpointing");
    if (o.prefilter && !o.tune)
        usageError("--prefilter only applies to --tune runs");
    if (o.analytic && cycle_only)
        usageError(std::string(cycle_only) + " needs --backend cycle");
    return o;
}

/** Checkpoint `tag`: a directory of per-socket images with --scenario. */
std::string
ckptPath(const Options &o, const std::string &tag)
{
    return o.ckptOut + "/ckpt-" + tag + (o.scenario.empty() ? ".mitts" : "");
}

/** Apply --restore, then call `step(next)` until it reports the run
 *  done, checkpointing at each absolute `every`-cycle boundary `next`
 *  (where the uninterrupted run would) on the way to cycle `end`. */
template <typename Target, typename Step>
void
runCheckpointed(Target &t, const Options &o, Tick every, Tick end, Step step)
{
    if (!o.restore.empty()) {
        t.restoreCheckpoint(o.restore);
        std::printf("restored %s at cycle %llu\n", o.restore.c_str(),
                    static_cast<unsigned long long>(t.now()));
    }
    if (t.now() > end)
        usageError("the checkpoint is already past the end cycle");
    if (!o.ckptOut.empty())
        std::filesystem::create_directories(o.ckptOut);
    Tick next = every > 0 ? (t.now() / every + 1) * every : kTickNever;
    for (bool done = false; !done;) {
        done = step(next);
        if (t.now() >= next) {
            t.saveCheckpoint(ckptPath(o, std::to_string(t.now())));
            next += every;
        }
    }
}

template <typename Target>
void
saveFinal(Target &t, const Options &o)
{
    if (o.ckptOut.empty())
        return;
    t.saveCheckpoint(ckptPath(o, "final"));
    std::printf("checkpoint: %s\n", ckptPath(o, "final").c_str());
}

int
runScenario(const Options &o)
{
    const cloud::ScenarioConfig sc = cloud::parseScenarioFile(o.scenario);
    if (o.until % sc.windowCycles || o.ckptEvery % sc.windowCycles)
        usageError("--scenario-until and --checkpoint-every must be "
                   "multiples of the scenario window");
    cloud::CloudEngine eng(sc, o.scenarioOut, o.cfg.sim);
    const Tick end = o.until > 0 ? o.until : sc.durationCycles;
    runCheckpointed(eng, o, o.ckptEvery, end, [&](Tick next) {
        eng.runUntil(std::min(end, next));
        return eng.now() >= end;
    });
    saveFinal(eng, o);
    eng.finalizeTelemetry();
    eng.writeReports(o.scenarioOut, o.stats, std::cout);
    return 0;
}

int
runSingle(const Options &o)
{
    SystemConfig cfg = o.cfg;
    if (cfg.telemetry.enabled && cfg.telemetry.outDir.empty())
        cfg.telemetry.outDir = "telemetry_out";
    // The same purchased distribution / rate limit on every core.
    unsigned cores = 0;
    for (const auto &app : cfg.apps)
        cores += appProfile(app).numThreads;
    if (!o.bins.empty())
        cfg.mittsConfigs.assign(cores, BinConfig(cfg.binSpec, o.bins));
    if (o.staticGbps > 0.0)
        cfg.staticIntervals.assign(cores, 64.0 * cfg.cpuGhz / o.staticGbps);

    if (o.analytic) {
        analytic::printReport(stdout, analytic::AnalyticModel().evaluate(cfg));
        return 0;
    }
    const RunnerOptions opts{o.instr, 400 * o.instr};
    if (o.tune) {
        if (cfg.telemetry.enabled) {
            std::fprintf(stderr, "note: telemetry flags are ignored with "
                                 "--tune (the GA runs many systems)\n");
            cfg.telemetry = telemetry::TelemetryOptions{};
        }
        std::printf("computing alone-run baselines...\n");
        const auto alone = aloneCyclesForAll(cfg, opts);
        std::printf("running offline GA (%s)...\n", objectiveName(*o.tune));
        OfflineTunerOptions topts;
        topts.run = opts;
        topts.ga.populationSize = 12;
        topts.ga.generations = 6;
        topts.prefilter.enabled = o.prefilter;
        const auto t = tuneMultiProgram(cfg, alone, *o.tune, 0, topts);
        std::printf("best configs:\n");
        for (std::size_t c = 0; c < t.best.size(); ++c)
            std::printf("  core %zu: %s\n", c, t.best[c].toString().c_str());
        std::printf("S_avg=%.3f S_max=%.3f\nevaluations: %llu "
                    "cycle-accurate, %llu analytic\n",
                    t.metrics.savg, t.metrics.smax,
                    static_cast<unsigned long long>(t.caEvaluations),
                    static_cast<unsigned long long>(t.analyticEvaluations));
        return 0;
    }

    System sys(cfg);
    if (o.cycles > 0) {
        // An absolute endpoint: a restored run ends where it would have.
        runCheckpointed(sys, o, o.ckptEvery, o.cycles, [&](Tick next) {
            sys.run(std::min(o.cycles, next) - sys.now());
            return sys.now() >= o.cycles;
        });
        std::printf("%-14s %14s %10s\n", "app", "instructions", "IPC/core");
        for (unsigned a = 0; a < sys.numApps(); ++a) {
            std::uint64_t instr = 0;
            for (CoreId c : sys.coresOfApp(a))
                instr += sys.core(c).instructions();
            std::printf("%-14s %14llu %10.3f\n", sys.appName(a).c_str(),
                        static_cast<unsigned long long>(instr),
                        static_cast<double>(instr) /
                            static_cast<double>(o.cycles) /
                            static_cast<double>(sys.coresOfApp(a).size()));
        }
    } else {
        // One step; checkpoints land on a batch boundary instead.
        std::vector<AppResult> results;
        runCheckpointed(sys, o, 0, kTickNever, [&](Tick) {
            const Tick every = o.ckptEvery ? o.ckptEvery : kTickNever;
            Tick next = (sys.now() / every + 1) * every;
            sys.setBatchCallback([&](Tick now) {
                if (now >= next)
                    sys.saveCheckpoint(ckptPath(o, std::to_string(now)));
                while (next <= now)
                    next += every;
            });
            results = sys.runUntilInstructions(o.instr, opts.maxCycles);
            return true;
        });
        std::printf("%-14s %12s %12s %10s\n", "app", "cycles", "mem-stalls",
                    "IPC");
        for (const auto &r : results)
            std::printf("%-14s %12llu %12llu %10.3f\n", r.name.c_str(),
                        static_cast<unsigned long long>(r.completedAt),
                        static_cast<unsigned long long>(r.memStallCycles),
                        static_cast<double>(r.instructions) /
                            static_cast<double>(r.completedAt));
    }
    saveFinal(sys, o);
    if (o.stats)
        sys.dumpStats(std::cout << "\n---- statistics ----\n");
    if (const auto *tel = sys.telemetry()) {
        sys.finalizeTelemetry();
        std::printf("telemetry: %s\n", tel->csvPath().c_str());
        if (!tel->tracePath().empty())
            std::printf("trace:     %s  (open in chrome://tracing or "
                        "ui.perfetto.dev)\n", tel->tracePath().c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    try {
        return o.scenario.empty() ? runSingle(o) : runScenario(o);
    } catch (const ckpt::Error &e) {
        std::fprintf(stderr, "mitts_sim: checkpoint: %s\n", e.what());
        return 2;
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "mitts_sim: %s\n", e.what());
        return 1;
    }
}

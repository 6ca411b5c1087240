#include "workloads.hh"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "base/random.hh"
#include "bench_stats.hh"
#include "cloud/engine.hh"
#include "cpu_pin.hh"
#include "layer_trace.hh"
#include "orchestrate/orchestrator.hh"
#include "orchestrate/sweep_spec.hh"
#include "orchestrate/worker.hh"
#include "system/system.hh"

namespace mitts_bench
{

using namespace mitts;
using namespace mitts::orchestrate;
namespace fs = std::filesystem;

// ---- Record ------------------------------------------------------

double
Record::num(const std::string &key, double fallback) const
{
    const auto it = nums_.find(key);
    return it == nums_.end() || it->second.empty() ? fallback
                                                   : it->second[0];
}

const std::vector<double> &
Record::nums(const std::string &key) const
{
    static const std::vector<double> kEmpty;
    const auto it = nums_.find(key);
    return it == nums_.end() ? kEmpty : it->second;
}

std::string
Record::text(const std::string &key) const
{
    const auto it = texts_.find(key);
    return it == texts_.end() ? "" : it->second;
}

std::string
Record::serialize() const
{
    std::ostringstream os;
    os.precision(17);
    for (const auto &[k, vs] : nums_) {
        os << "n " << k;
        for (const double v : vs)
            os << ' ' << v;
        os << '\n';
    }
    for (const auto &[k, v] : texts_) {
        std::string flat = v;
        for (char &c : flat)
            if (c == '\n')
                c = ' ';
        os << "t " << k << ' ' << flat << '\n';
    }
    return os.str();
}

Record
Record::parse(const std::string &text)
{
    Record r;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string kind, key;
        if (!(ls >> kind >> key))
            continue;
        if (kind == "n") {
            std::vector<double> &vs = r.nums_[key];
            double v = 0.0;
            while (ls >> v)
                vs.push_back(v);
        } else if (kind == "t") {
            std::string rest;
            std::getline(ls, rest);
            r.texts_[key] = rest.empty() ? rest : rest.substr(1);
        }
    }
    return r;
}

std::string
fnv1aHex(const std::string &bytes)
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001B3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Host time is reported per window of this many simulated cycles. */
constexpr Tick kWindow = 10'000;
/** Checkpoint saves and restores timed per rep. */
constexpr unsigned kCkptReps = 5;
/** Constructions timed per rep for setup_s. */
constexpr unsigned kSetupReps = 9;
/** Sampled cycles whose spans go into the Chrome trace. */
constexpr std::size_t kKeepCycles = 2'000;

// Seed mapping. S = 1 gives the committed recipes' seeds: system seed
// 12345, sweeps/fig12.sweep's seed axis 1,2,3, the tuner's default GA
// seed, and scenarios/diurnal200.scn unchanged.
std::uint64_t systemSeed(const Params &p) { return 12344 + p.seed; }
std::uint64_t gaSeed(const Params &p) { return 0xC0FFEE + p.seed - 1; }

/** Full-size quantity, or ~1/50 of it in smoke mode. */
std::uint64_t
scaled(std::uint64_t full, const Params &p)
{
    return p.smoke ? full / 50 : full;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
statsOf(const System &sys)
{
    std::ostringstream os;
    sys.dumpStats(os);
    return os.str();
}

// ---- configurations ----------------------------------------------

/** The memory-intensive four-app mix of the saturated kernel bench. */
SystemConfig
mixConfig(const Params &p)
{
    SystemConfig cfg = SystemConfig::multiProgram(
        {"mcf", "libquantum", "omnetpp", "astar"});
    cfg.seed = systemSeed(p);
    return cfg;
}

/** Same mix under MITTS: 12 credits per core, all in bin 2, so cores
 *  burst then wait for the replenish period. */
SystemConfig
shapedConfig(const Params &p)
{
    SystemConfig cfg = mixConfig(p);
    cfg.gate = GateKind::Mitts;
    std::vector<std::uint32_t> credits(cfg.binSpec.numBins, 0);
    credits[2] = 12;
    cfg.mittsConfigs.assign(4, BinConfig(cfg.binSpec, credits));
    return cfg;
}

Tick saturatedCycles(const Params &p) { return scaled(6'000'000, p); }
Tick shapedCycles(const Params &p) { return scaled(8'000'000, p); }

const std::vector<std::string> kFig12Apps = {"gcc", "mcf", "libquantum",
                                             "sjeng"};

/** The paper's Fig. 12 comparison: every comparator scheduler of the
 *  paper, three system seeds. */
SweepSpec
fig12Grid(const Params &p)
{
    SweepSpec s;
    s.name = "fig12-grid";
    s.mode = SweepMode::Grid;
    s.apps = kFig12Apps;
    s.instr = scaled(100'000, p);
    s.seed = systemSeed(p);
    s.schedAxis = {"frfcfs", "fairqueue", "atlas", "tcm",
                   "fst",    "memguard",  "mise"};
    s.seedAxis = {p.seed, p.seed + 1, p.seed + 2};
    return s;
}

/** MITTS's side of Fig. 12: the offline GA with warm-start images. */
SweepSpec
fig12Tune(const Params &p)
{
    SweepSpec s;
    s.name = "fig12-tune";
    s.mode = SweepMode::Tune;
    s.apps = kFig12Apps;
    s.instr = scaled(100'000, p);
    s.seed = systemSeed(p);
    s.objective = Objective::Throughput;
    s.population = 8;
    s.generations = 6;
    s.gaSeed = gaSeed(p);
    s.warmupInstr = scaled(20'000, p);
    // A genome that starves a core of credits runs to the cycle cap;
    // the default 10M-cycle cap lets such genomes triple a rep on some
    // GA seeds. 800k cycles is ~3x the longest unthrottled run.
    s.maxCycles = scaled(800'000, p);
    return s;
}

/**
 * diurnal200.scn, built in code; telemetry stays in memory. Every S
 * keeps the recipe's scenario seed, hence its arrival process, and
 * shuffles the profile catalogue tenants draw from (S = 1: the
 * recipe's order), so each seed runs other applications for the same
 * arrivals. A scenario seed per S would move the datacenter's load,
 * and with it every timing, by +-15% from seed to seed: ~250
 * exponential residencies are too few to average out.
 */
cloud::ScenarioConfig
diurnalScenario(const Params &p)
{
    cloud::ScenarioConfig sc;
    sc.name = "diurnal200";
    sc.seed = 42;
    sc.sockets = 8;
    sc.coresPerSocket = 8;
    sc.windowCycles = kWindow;
    sc.durationCycles = scaled(2'000'000, p);
    sc.arrivalsPerWindow = 2.0;
    sc.meanResidencyWindows = 8;
    sc.diurnalPeriod = 500'000;
    sc.diurnalMin = 0.3;
    sc.profiles = {"mcf", "libquantum", "gcc", "apache", "bzip", "hmmer"};
    if (p.seed != 1) {
        Random rng(p.seed);
        for (std::size_t i = sc.profiles.size() - 1; i > 0; --i)
            std::swap(sc.profiles[i], sc.profiles[rng.below(i + 1)]);
    }
    sc.telemetry = true;
    sc.sampleInterval = kWindow;
    return sc;
}

// ---- shared measurement pieces -----------------------------------

/**
 * Time kSetupReps builds of the workload's system with `make` and
 * record the median as setup_s. Called after the rep's timed run: one
 * construction takes well under a millisecond, and timed at the start
 * of a fresh process it reads up to twice as long while the CPU
 * clocks up, which would make the metric measure the host.
 */
template <class Make>
void
timeSetup(Make make, Record &r)
{
    std::vector<double> times;
    for (unsigned i = 0; i < kSetupReps; ++i) {
        const auto t0 = Clock::now();
        const auto built = make();
        times.push_back(secondsSince(t0));
    }
    r.set("setup_s", median(times));
}

/** Run `cycles` in kWindow steps, timing each; returns the total. */
double
runWindows(System &sys, Tick cycles, Record &r)
{
    const auto t0 = Clock::now();
    for (Tick done = 0; done < cycles; done += kWindow) {
        const auto tw = Clock::now();
        sys.run(std::min(kWindow, cycles - done));
        r.add("window_ms", secondsSince(tw) * 1e3);
    }
    return secondsSince(t0);
}

/**
 * Save `sys` kCkptReps times, then restore the image into as many
 * freshly built Systems (construction untimed). Records the medians;
 * returns the last restored System.
 */
std::unique_ptr<System>
measureCheckpoint(System &sys, const std::string &path, Record &r)
{
    std::vector<double> save, restore;
    for (unsigned i = 0; i < kCkptReps; ++i) {
        const auto t = Clock::now();
        sys.saveCheckpoint(path);
        save.push_back(secondsSince(t) * 1e3);
    }
    std::unique_ptr<System> restored;
    for (unsigned i = 0; i < kCkptReps; ++i) {
        restored = std::make_unique<System>(sys.config());
        const auto t = Clock::now();
        restored->restoreCheckpoint(path);
        restore.push_back(secondsSince(t) * 1e3);
    }
    r.set("ckpt_save_ms", median(save));
    r.set("ckpt_restore_ms", median(restore));
    return restored;
}

/** One rep of a single-System workload: build, run in windows,
 *  checkpoint, then check that a resumed copy matches the original
 *  over a further run. */
Record
systemRep(const SystemConfig &cfg, Tick cycles, const Params &p)
{
    Record r;
    System sys(cfg);
    r.set("wall_s", runWindows(sys, cycles, r));
    r.setText("digest", fnv1aHex(statsOf(sys)));

    auto restored = measureCheckpoint(sys, p.scratch + "/sys.ckpt", r);
    const Tick resume = scaled(100'000, p);
    sys.run(resume);
    restored->run(resume);
    if (statsOf(sys) != statsOf(*restored))
        r.fail("checkpoint resume diverged from the uninterrupted run");
    timeSetup([&] { return std::make_unique<System>(cfg); }, r);
    r.set("ops", 1);
    return r;
}

// ---- per-layer metrics -------------------------------------------

/** Simulated quantities summed over every System a pass traced. */
struct ModelTotals
{
    double instructions = 0, coreCycles = 0;
    double l1Hits = 0, l1Misses = 0, llcHits = 0, llcMisses = 0;
    double shaperStalls = 0;
    double queueLatencySum = 0, completed = 0;
    double rowHits = 0, rowAccesses = 0;

    void
    add(System &sys, Tick cycles)
    {
        for (unsigned c = 0; c < sys.numCores(); ++c) {
            const auto core = static_cast<CoreId>(c);
            instructions +=
                static_cast<double>(sys.core(core).instructions());
            coreCycles += static_cast<double>(cycles);
            l1Hits += static_cast<double>(sys.l1(core).hits());
            l1Misses += static_cast<double>(sys.l1(core).misses());
            shaperStalls +=
                static_cast<double>(sys.l1(core).shaperStallCycles());
        }
        llcHits += static_cast<double>(sys.llc().hits());
        llcMisses += static_cast<double>(sys.llc().misses());
        MemController &mc = sys.memController();
        const auto done = static_cast<double>(mc.completed());
        queueLatencySum += mc.avgQueueLatency() * done;
        completed += done;
        for (unsigned ch = 0; ch < mc.numChannels(); ++ch) {
            const Dram &d = mc.dram(ch);
            rowHits += static_cast<double>(d.rowHits());
            rowAccesses += static_cast<double>(
                d.rowHits() + d.rowMisses() + d.rowConflicts());
        }
    }
};

/** Host-time totals of a pass's untraced runs (kernel with and
 *  without skip-ahead) and its traced run, plus what it simulated. */
struct PassTotals
{
    double skipS = 0, noSkipS = 0, tracedS = 0;
    /** Untraced run in the traced run's kernel mode. */
    double tracedRefS = 0;
    double cycles = 0, execCycles = 0;
    double ckptBytes = 0;
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

void
setLayer(Record &r, const std::string &name, double v)
{
    r.set("layer." + name, v);
}

/**
 * Fill every per-layer metric of `r` from a pass. `total_ns` is the
 * host time the self-time shares divide; `scale` turns sampled self
 * time into an estimate of the total (1 when total_ns is itself the
 * sampled-cycle total).
 */
void
fillLayers(Record &r, const SpanRecorder &rec, double total_ns,
           double scale, const PassTotals &pt, const ModelTotals &m)
{
    for (const LayerMetric &lm : layerMetrics())
        setLayer(r, lm.name, 0.0);

    static const std::pair<Layer, const char *> kShares[] = {
        {Layer::Events, "sim.event_drain_share"},
        {Layer::Core, "core.self_share"},
        {Layer::Trace, "trace.self_share"},
        {Layer::L1, "cache.l1.self_share"},
        {Layer::Llc, "cache.llc.self_share"},
        {Layer::Shaper, "shaper.self_share"},
        {Layer::Sched, "sched.self_share"},
        {Layer::Memctrl, "memctrl.self_share"},
    };
    const auto &self = rec.selfNs();
    double covered = 0;
    for (const auto &[layer, name] : kShares) {
        const double share =
            ratio(self[static_cast<unsigned>(layer)] * scale, total_ns);
        setLayer(r, name, share);
        covered += share;
    }
    setLayer(r, "bench.unattributed_share", std::max(0.0, 1.0 - covered));

    const CallCounts &n = rec.counts();
    setLayer(r, "trace.ops", static_cast<double>(n.traceOps));
    setLayer(r, "shaper.calls", static_cast<double>(n.gateCalls));
    setLayer(r, "shaper.admit_frac",
             ratio(static_cast<double>(n.gateAdmitted),
                   static_cast<double>(n.gateCalls)));
    setLayer(r, "sched.pick_calls", static_cast<double>(n.pickCalls));
    setLayer(r, "sched.issue_frac",
             ratio(static_cast<double>(n.pickIssued),
                   static_cast<double>(n.pickCalls)));
    setLayer(r, "sched.ns_per_pick",
             ratio(self[static_cast<unsigned>(Layer::Sched)] *
                       static_cast<double>(kSamplePeriod),
                   static_cast<double>(n.pickCalls)));
    setLayer(r, "memctrl.push_calls", static_cast<double>(n.mcPushes));

    setLayer(r, "sim.exec_cycles", pt.execCycles);
    setLayer(r, "sim.skipped_frac", 1.0 - ratio(pt.execCycles, pt.cycles));
    setLayer(r, "sim.ns_per_exec_cycle",
             ratio(pt.skipS * 1e9, pt.execCycles));
    setLayer(r, "sim.skip_speedup", ratio(pt.noSkipS, pt.skipS));
    setLayer(r, "bench.trace_overhead",
             ratio(pt.tracedS, pt.tracedRefS) - 1.0);
    setLayer(r, "ckpt.bytes", pt.ckptBytes);

    setLayer(r, "core.ipc", ratio(m.instructions, m.coreCycles));
    setLayer(r, "cache.l1.miss_rate",
             ratio(m.l1Misses, m.l1Hits + m.l1Misses));
    setLayer(r, "cache.llc.miss_rate",
             ratio(m.llcMisses, m.llcHits + m.llcMisses));
    setLayer(r, "shaper.stall_cycles", m.shaperStalls);
    setLayer(r, "memctrl.queue_latency_cyc",
             ratio(m.queueLatencySum, m.completed));
    setLayer(r, "dram.row_hit_frac", ratio(m.rowHits, m.rowAccesses));
}

/** Shares of a bench-driven loop divide the sampled-cycle total. */
double
sampledTotalNs(const SpanRecorder &rec)
{
    double total = 0;
    for (const double ns : rec.selfNs())
        total += ns;
    return total;
}

/**
 * Run `cfg` for `cycles` three ways: the kernel with skip-ahead, the
 * kernel without, and the bench's own decorated no-skip loop. The
 * stats dumps must be byte-identical. With `ckpt_path` set, the
 * skip-ahead run's final state is checkpointed there.
 */
void
traceSystem(const SystemConfig &cfg, Tick cycles, SpanRecorder &rec,
            PassTotals &pt, ModelTotals &m, Record &r,
            const std::string &what, const std::string &ckpt_path = "")
{
    SystemConfig plain = cfg;
    plain.sim.skipAhead = true;
    std::string skip_stats;
    {
        System sys(plain);
        const auto t = Clock::now();
        sys.run(cycles);
        pt.skipS += secondsSince(t);
        pt.cycles += static_cast<double>(cycles);
        pt.execCycles +=
            static_cast<double>(cycles - sys.sim().cyclesSkipped());
        skip_stats = statsOf(sys);
        if (!ckpt_path.empty()) {
            sys.saveCheckpoint(ckpt_path);
            pt.ckptBytes = static_cast<double>(fs::file_size(ckpt_path));
        }
    }
    plain.sim.skipAhead = false;
    {
        System sys(plain);
        const auto t = Clock::now();
        sys.run(cycles);
        const double s = secondsSince(t);
        pt.noSkipS += s;
        pt.tracedRefS += s;
        if (statsOf(sys) != skip_stats)
            r.fail(what + ": no-skip stats differ from skip-ahead");
    }
    SystemConfig traced = cfg;
    installTracedTraceFactory(traced, rec);
    System sys(traced);
    SystemDecorators decorators(sys, rec);
    const auto t = Clock::now();
    runTracedLoop(sys, rec, cycles);
    pt.tracedS += secondsSince(t);
    if (statsOf(sys) != skip_stats)
        r.fail(what + ": traced stats differ from untraced");
    m.add(sys, cycles);
}

Record
systemTraced(const SystemConfig &cfg, Tick cycles, const Params &p,
             const std::string &name)
{
    Record r;
    SpanRecorder rec(kKeepCycles);
    PassTotals pt;
    ModelTotals m;
    traceSystem(cfg, cycles, rec, pt, m, r, name, p.scratch + "/sys.ckpt");
    fillLayers(r, rec, sampledTotalNs(rec), 1.0, pt, m);
    if (!rec.writeChromeTrace(p.outDir + "/" + name + ".trace.json"))
        r.fail("cannot write " + name + ".trace.json");
    r.set("ops", 1);
    return r;
}

// ---- saturated / shaped ------------------------------------------

Record
saturatedRep(const Params &p)
{
    return systemRep(mixConfig(p), saturatedCycles(p), p);
}

Record
saturatedTraced(const Params &p)
{
    return systemTraced(mixConfig(p), saturatedCycles(p), p, "saturated");
}

Record
shapedRep(const Params &p)
{
    return systemRep(shapedConfig(p), shapedCycles(p), p);
}

Record
shapedTraced(const Params &p)
{
    return systemTraced(shapedConfig(p), shapedCycles(p), p, "shaped");
}

// ---- fig12 -------------------------------------------------------

struct SweepRun
{
    OrchestratorCounters grid, tune;
    double gridS = 0, tuneS = 0;
    /** results.txt + summary.json of the grid, then of the tune. */
    std::string outputs;
};

/** The grid and the GA tune, sharing one fresh result cache. */
SweepRun
runFig12(const Params &p, unsigned workers, const std::string &dir)
{
    SweepRun run;
    OrchestratorOptions o;
    o.workers = workers;
    o.workerExe = p.selfExe;
    o.cacheDir = dir + "/cache";

    o.outDir = dir + "/grid";
    auto t = Clock::now();
    run.grid = runSweep(fig12Grid(p), o);
    run.gridS = secondsSince(t);
    run.outputs = readFile(o.outDir + "/results.txt") +
                  readFile(o.outDir + "/summary.json");

    o.outDir = dir + "/tune";
    t = Clock::now();
    run.tune = runSweep(fig12Tune(p), o);
    run.tuneS = secondsSince(t);
    run.outputs += readFile(o.outDir + "/results.txt") +
                   readFile(o.outDir + "/summary.json");
    return run;
}

/** Sweep units attempted: grid points plus GA evaluations. */
std::uint64_t
sweepUnits(const SweepRun &run)
{
    return run.grid.totalUnits + run.tune.gaEvaluated;
}

/** The genome fig12's replays and traced pass run: 64 credits in
 *  every bin of every core. A fixed genome keeps the GA's
 *  seed-dependent choice out of these timings. */
std::vector<BinConfig>
replayBins(const Params &p)
{
    const BinSpec spec;
    return std::vector<BinConfig>(specNumCores(fig12Tune(p)),
                                  BinConfig::uniform(spec, 64));
}

/**
 * fig12's per-genome work, replayed in-process the way every tune
 * worker evaluates a genome: restore the GA's warm-start image into a
 * fresh System, install the genome's bins, run to the instruction
 * target. Times the image's save and restore, and each full kWindow
 * of the runs; fourteen replays give over 200 windows per rep.
 */
void
replayGenomes(const Params &p, const std::string &cache_dir, Record &r)
{
    const SweepSpec tune = fig12Tune(p);
    WorkerContext ctx(tune, cache_dir);
    const std::string image = ctx.warmCheckpointPath();
    const SystemConfig warm = ctx.warmConfig();
    const std::vector<BinConfig> bins = replayBins(p);

    std::vector<double> save, restore;
    {
        System loaded(warm);
        loaded.restoreCheckpoint(image);
        for (unsigned i = 0; i < kCkptReps; ++i) {
            const auto t = Clock::now();
            loaded.saveCheckpoint(p.scratch + "/replay.ckpt");
            save.push_back(secondsSince(t) * 1e3);
        }
    }
    const unsigned replays = p.smoke ? 2 : 14;
    for (unsigned i = 0; i < replays; ++i) {
        System sys(warm);
        const auto t = Clock::now();
        sys.restoreCheckpoint(image);
        restore.push_back(secondsSince(t) * 1e3);
        for (unsigned c = 0; c < bins.size(); ++c)
            sys.setShaperConfig(static_cast<CoreId>(c), bins[c]);
        bool done = false;
        while (!done) {
            const Tick start = sys.sim().now();
            const auto tw = Clock::now();
            const auto results =
                sys.runUntilInstructions(tune.instr, kWindow);
            const double ms = secondsSince(tw) * 1e3;
            done = true;
            for (const AppResult &a : results)
                done = done && a.completed;
            if (sys.sim().now() - start == kWindow)
                r.add("window_ms", ms);
        }
    }
    r.set("ckpt_save_ms", median(save));
    r.set("ckpt_restore_ms", median(restore));
}

Record
fig12Rep(const Params &p)
{
    Record r;
    const auto t0 = Clock::now();
    const SweepRun run = runFig12(p, p.workers, p.scratch);
    r.set("wall_s", secondsSince(t0));
    r.setText("digest", fnv1aHex(run.outputs));
    r.set("ops", static_cast<double>(sweepUnits(run)));
    r.set("ops_failed",
          static_cast<double>(run.grid.retried + run.tune.retried));
    if (run.grid.cached != 0)
        r.fail("cold fig12 rep served " +
               std::to_string(run.grid.cached) +
               " grid units from the cache");
    // The sweep has reaped its workers; time the in-process parts on
    // one quiet CPU like the single-process workloads.
    pinToCpu(quietestCpu());
    replayGenomes(p, p.scratch + "/cache", r);
    // What a grid worker does before its first simulated cycle.
    timeSetup(
        [&] {
            const SweepSpec grid = fig12Grid(p);
            validateSweep(grid);
            return std::make_unique<System>(
                unitConfig(grid, unitAt(grid, 0)));
        },
        r);
    return r;
}

Record
fig12Traced(const Params &p)
{
    Record r;
    const SweepRun one = runFig12(p, 1, p.scratch + "/w1");
    const auto t = Clock::now();
    const SweepRun many = runFig12(p, p.workers, p.scratch + "/wN");
    const double wall = secondsSince(t);
    if (one.outputs != many.outputs)
        r.fail("fig12 results differ between 1 and " +
               std::to_string(p.workers) + " workers");
    r.set("ops", static_cast<double>(sweepUnits(one) + sweepUnits(many)));
    r.set("ops_failed",
          static_cast<double>(one.grid.retried + one.tune.retried +
                              many.grid.retried + many.tune.retried));

    // Layer attribution over the simulations fig12 is made of, on one
    // quiet CPU: one System per comparator the bench can drive
    // (MemGuard's controller is not reachable through System), plus
    // the tuner's MITTS config with the replay genome.
    pinToCpu(quietestCpu());
    SpanRecorder rec(kKeepCycles);
    PassTotals pt;
    ModelTotals m;
    const Tick cycles = scaled(200'000, p);
    const SweepSpec grid = fig12Grid(p);
    for (std::size_t i = 0; i < grid.schedAxis.size(); ++i) {
        const UnitSpec unit = unitAt(grid, i * grid.seedAxis.size());
        const SystemConfig cfg = unitConfig(grid, unit);
        if (tracedLoopSupports(cfg))
            traceSystem(cfg, cycles, rec, pt, m, r,
                        "fig12 " + grid.schedAxis[i]);
    }
    SystemConfig tuned = tuneBaseConfig(fig12Tune(p));
    tuned.mittsConfigs = replayBins(p);
    traceSystem(tuned, cycles, rec, pt, m, r, "fig12 tuned");
    // The image every genome evaluation restores.
    WorkerContext ctx(fig12Tune(p), p.scratch + "/wN/cache");
    pt.ckptBytes =
        static_cast<double>(fs::file_size(ctx.warmCheckpointPath()));
    fillLayers(r, rec, sampledTotalNs(rec), 1.0, pt, m);

    std::uint64_t busy_ms = 0;
    for (const auto &c : {many.grid, many.tune})
        for (const std::uint64_t ms : c.workerWallMs)
            busy_ms += ms;
    setLayer(r, "orchestrate.dispatched",
             static_cast<double>(many.grid.dispatched +
                                 many.tune.dispatched));
    setLayer(r, "orchestrate.cached",
             static_cast<double>(many.grid.cached + many.tune.cached));
    setLayer(r, "orchestrate.retried",
             static_cast<double>(many.grid.retried + many.tune.retried));
    setLayer(r, "orchestrate.worker_busy_frac",
             ratio(static_cast<double>(busy_ms) / 1e3,
                   wall * static_cast<double>(p.workers)));
    setLayer(r, "orchestrate.tune_frac",
             ratio(many.tuneS, many.gridS + many.tuneS));
    setLayer(r, "tuner.ga_evaluated",
             static_cast<double>(many.tune.gaEvaluated));
    setLayer(r, "tuner.ga_cache_hits",
             static_cast<double>(many.tune.gaCacheHits));
    const std::string summary =
        readFile(p.scratch + "/wN/tune/summary.json");
    const auto pos = summary.find("\"savg\": ");
    setLayer(r, "tuner.best_savg",
             pos == std::string::npos
                 ? 0.0
                 : std::stod(summary.substr(pos + 8)));

    if (!rec.writeChromeTrace(p.outDir + "/fig12.trace.json"))
        r.fail("cannot write fig12.trace.json");
    return r;
}

// ---- diurnal200 --------------------------------------------------

/** Step the engine one window at a time to the end, timing each. */
double
runScenarioWindows(cloud::CloudEngine &eng, Record *r)
{
    const cloud::ScenarioConfig &sc = eng.scenario();
    const auto t0 = Clock::now();
    for (Tick t = sc.windowCycles; t <= sc.durationCycles;
         t += sc.windowCycles) {
        const auto tw = Clock::now();
        eng.runUntil(t);
        if (r)
            r->add("window_ms", secondsSince(tw) * 1e3);
    }
    return secondsSince(t0);
}

std::string
billingOf(cloud::CloudEngine &eng)
{
    std::ostringstream os;
    eng.writeBillingCsv(os);
    eng.writeSummary(os);
    return os.str();
}

std::string
engineStats(const cloud::CloudEngine &eng)
{
    std::ostringstream os;
    eng.dumpStats(os);
    return os.str();
}

Record
diurnalRep(const Params &p)
{
    Record r;
    const cloud::ScenarioConfig sc = diurnalScenario(p);
    cloud::CloudEngine eng(sc);
    r.set("wall_s", runScenarioWindows(eng, &r));
    const std::string billing = billingOf(eng);
    r.setText("digest", fnv1aHex(billing));

    const std::string dir = p.scratch + "/ckpt";
    std::vector<double> save, restore;
    for (unsigned i = 0; i < kCkptReps; ++i) {
        const auto t = Clock::now();
        eng.saveCheckpoint(dir);
        save.push_back(secondsSince(t) * 1e3);
    }
    for (unsigned i = 0; i < kCkptReps; ++i) {
        cloud::CloudEngine fresh(sc);
        const auto t = Clock::now();
        fresh.restoreCheckpoint(dir);
        restore.push_back(secondsSince(t) * 1e3);
        if (i + 1 == kCkptReps && billingOf(fresh) != billing)
            r.fail("restored datacenter bills differently");
    }
    r.set("ckpt_save_ms", median(save));
    r.set("ckpt_restore_ms", median(restore));
    timeSetup([&] { return std::make_unique<cloud::CloudEngine>(sc); },
              r);
    r.set("ops", 1);
    return r;
}

Record
diurnalTraced(const Params &p)
{
    Record r;
    const cloud::ScenarioConfig sc = diurnalScenario(p);
    PassTotals pt;
    std::string stats;
    {
        cloud::CloudEngine eng(sc);
        pt.skipS = runScenarioWindows(eng, nullptr);
        pt.tracedRefS = pt.skipS; // the traced run skips ahead too
        for (unsigned si = 0; si < eng.numSockets(); ++si) {
            pt.cycles += static_cast<double>(sc.durationCycles);
            pt.execCycles += static_cast<double>(
                sc.durationCycles -
                eng.socketSystem(si).sim().cyclesSkipped());
        }
        stats = engineStats(eng) + billingOf(eng);
        const std::string dir = p.scratch + "/ckpt";
        eng.saveCheckpoint(dir);
        for (const auto &e : fs::directory_iterator(dir))
            pt.ckptBytes += static_cast<double>(e.file_size());
    }
    {
        SimulationConfig no_skip;
        no_skip.skipAhead = false;
        cloud::CloudEngine eng(sc, "", no_skip);
        pt.noSkipS = runScenarioWindows(eng, nullptr);
        if (engineStats(eng) + billingOf(eng) != stats)
            r.fail("diurnal200: no-skip stats differ from skip-ahead");
    }

    // The engine drives its own kernels, so only the decorated seams
    // (gates, L1->LLC and LLC->MC pushes, scheduler) are attributed;
    // the rest of the window time stays unattributed.
    SpanRecorder rec(kKeepCycles);
    cloud::CloudEngine eng(sc);
    std::vector<std::unique_ptr<SystemDecorators>> decorators;
    for (unsigned si = 0; si < eng.numSockets(); ++si)
        decorators.push_back(
            std::make_unique<SystemDecorators>(eng.socketSystem(si), rec));
    pt.tracedS = runScenarioWindows(eng, nullptr);
    if (engineStats(eng) + billingOf(eng) != stats)
        r.fail("diurnal200: traced stats differ from untraced");

    ModelTotals m;
    for (unsigned si = 0; si < eng.numSockets(); ++si)
        m.add(eng.socketSystem(si), sc.durationCycles);
    fillLayers(r, rec, pt.tracedS * 1e9,
               static_cast<double>(kSamplePeriod), pt, m);

    double admitted = 0, windows = 0, scale = 0, lat = 0;
    for (const cloud::TenantRecord &t : eng.records()) {
        admitted += t.admitted ? 1 : 0;
        windows += static_cast<double>(t.windows);
        scale += t.upgrades + t.downgrades;
        lat += static_cast<double>(t.latencyViolations);
    }
    setLayer(r, "cloud.arrived", static_cast<double>(eng.records().size()));
    setLayer(r, "cloud.admitted", admitted);
    setLayer(r, "cloud.tenant_windows", windows);
    setLayer(r, "cloud.scale_events", scale);
    setLayer(r, "cloud.latency_violations", lat);

    if (!rec.writeChromeTrace(p.outDir + "/diurnal200.trace.json"))
        r.fail("cannot write diurnal200.trace.json");
    r.set("ops", 1);
    return r;
}

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> kAll = {
        {"saturated", true, saturatedRep, saturatedTraced},
        {"shaped", true, shapedRep, shapedTraced},
        {"fig12", false, fig12Rep, fig12Traced},
        {"diurnal200", true, diurnalRep, diurnalTraced},
    };
    return kAll;
}

const std::vector<LayerMetric> &
layerMetrics()
{
    static const std::vector<LayerMetric> kAll = {
        {"sim.exec_cycles", "count", true},
        {"sim.skipped_frac", "share", true},
        {"sim.ns_per_exec_cycle", "ns", false},
        {"sim.skip_speedup", "x", false},
        {"sim.event_drain_share", "share", false},
        {"trace.ops", "count", true},
        {"trace.self_share", "share", false},
        {"core.self_share", "share", false},
        {"core.ipc", "instr/cycle", true},
        {"cache.l1.self_share", "share", false},
        {"cache.l1.miss_rate", "share", true},
        {"cache.llc.self_share", "share", false},
        {"cache.llc.miss_rate", "share", true},
        {"shaper.calls", "count", true},
        {"shaper.admit_frac", "share", true},
        {"shaper.self_share", "share", false},
        {"shaper.stall_cycles", "count", true},
        {"sched.pick_calls", "count", true},
        {"sched.issue_frac", "share", true},
        {"sched.ns_per_pick", "ns", false},
        {"sched.self_share", "share", false},
        {"memctrl.push_calls", "count", true},
        {"memctrl.self_share", "share", false},
        {"memctrl.queue_latency_cyc", "cycles", true},
        {"dram.row_hit_frac", "share", true},
        {"ckpt.bytes", "bytes", true},
        {"orchestrate.dispatched", "count", true},
        {"orchestrate.cached", "count", true},
        {"orchestrate.retried", "count", false},
        {"orchestrate.worker_busy_frac", "share", false},
        {"orchestrate.tune_frac", "share", false},
        {"tuner.ga_evaluated", "count", true},
        {"tuner.ga_cache_hits", "count", true},
        {"tuner.best_savg", "x", true},
        {"cloud.arrived", "count", true},
        {"cloud.admitted", "count", true},
        {"cloud.tenant_windows", "count", true},
        {"cloud.scale_events", "count", true},
        {"cloud.latency_violations", "count", true},
        {"bench.unattributed_share", "share", false},
        {"bench.trace_overhead", "share", false},
    };
    return kAll;
}

} // namespace mitts_bench

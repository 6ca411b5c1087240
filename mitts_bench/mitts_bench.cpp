/**
 * @file
 * mitts_bench: one repeatable, layer-attributed benchmark of the MITTS
 * simulator over four workloads (saturated, shaped, fig12,
 * diurnal200). See README.md for the workloads, metrics and bounds.
 *
 *   mitts_bench [--workload NAME]... [--seed S] [--reps N] [--out DIR]
 *               [--traced | --no-traced] [--smoke]
 *   mitts_bench --workload NAME --seed S --seconds T --trace 0|1
 *
 * Reps run round-robin across workloads, each in a forked child with
 * MITTS_THREADS=1, after one discarded warm-up rep per workload. The
 * end-to-end metrics come from those untraced reps; a separate traced
 * pass per workload gives the per-layer metrics. The second form
 * measures one workload for T seconds and prints, as the last line of
 * stdout, one JSON object with either the end-to-end (--trace 0) or
 * the per-layer (--trace 1) metrics.
 *
 * Exit codes: 0 all checks passed, 1 a check or a rep failed, 2 usage.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench_stats.hh"
#include "cpu_pin.hh"
#include "orchestrate/worker.hh"
#include "workloads.hh"

#ifndef MITTS_BENCH_BUILD_TYPE
#define MITTS_BENCH_BUILD_TYPE "unknown"
#endif

using namespace mitts_bench;
namespace fs = std::filesystem;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** An end-to-end metric: what a user of the simulator waits for.
 *  Gated metrics carry a regression bound in BENCHMARK.json and make
 *  up the measure mode's result line. */
struct E2eMetric
{
    const char *name;
    const char *unit;
    const char *better;
    bool gated;
};

const E2eMetric kE2e[] = {
    {"wall_s", "s", "lower", true},
    {"cpu_s", "s", "lower", true},
    {"setup_s", "s", "lower", true},
    {"peak_rss_mb", "MB", "lower", true},
    {"ckpt_save_ms", "ms", "lower", true},
    {"ckpt_restore_ms", "ms", "lower", true},
    {"window_ms.p50", "ms", "lower", true},
    // The window tail moves with each seed's inputs (shaped's window
    // times are bimodal: its p95 spread 17% across ten seeds while
    // wall_s spread 4%), so it is reported but bounds no change.
    {"window_ms.p95", "ms", "lower", false},
};

struct Options
{
    std::vector<std::string> workloads;
    std::uint64_t seed = 1;
    unsigned reps = 5;
    bool repsSet = false;
    double seconds = 0;
    int trace = -1; ///< -1: full set; 0/1: one-workload measure mode
    bool traced = true;
    bool smoke = false;
    std::string out;
};

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "mitts_bench: %s\n", msg.c_str());
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const std::string &s)
{
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
        usageError(flag + " expects a non-negative integer, got '" + s +
                   "'");
    errno = 0;
    const std::uint64_t v = std::strtoull(s.c_str(), nullptr, 10);
    if (errno == ERANGE)
        usageError(flag + " value out of range: '" + s + "'");
    return v;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError(arg + " requires a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            const std::string name = value();
            if (!findWorkload(name))
                usageError("unknown workload '" + name + "'");
            o.workloads.push_back(name);
        } else if (arg == "--seed") {
            o.seed = parseCount(arg, value());
        } else if (arg == "--reps") {
            o.reps = static_cast<unsigned>(
                std::max<std::uint64_t>(1, parseCount(arg, value())));
            o.repsSet = true;
        } else if (arg == "--seconds") {
            o.seconds = static_cast<double>(parseCount(arg, value()));
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usageError("--trace expects 0 or 1");
            o.trace = v == "1";
        } else if (arg == "--out") {
            o.out = value();
        } else if (arg == "--traced") {
            o.traced = true;
        } else if (arg == "--no-traced") {
            o.traced = false;
        } else if (arg == "--smoke") {
            o.smoke = true;
        } else {
            usageError("unknown flag '" + arg + "'");
        }
    }
    if (o.workloads.empty())
        for (const Workload &w : workloads())
            o.workloads.push_back(w.name);
    if (o.trace >= 0 && o.workloads.size() != 1)
        usageError("--trace measures exactly one --workload");
    return o;
}

std::string
selfExe()
{
    std::error_code ec;
    const fs::path p = fs::read_symlink("/proc/self/exe", ec);
    return ec ? "" : p.string();
}

// ---- forked children ---------------------------------------------

struct ChildResult
{
    Record rec;
    double elapsedS = 0;
    double cpuS = 0;
    double rssMb = 0;
    /** Why the child counts as failed (crash, exit code, deadline,
     *  failed output check); empty when it passed. */
    std::string error;
};

/** Process group of the running child, for the signal handler. */
volatile std::sig_atomic_t g_childGroup = 0;

/** Kill `pid`'s whole process group, including sweep workers it had
 *  forked (reparented to us as subreaper). */
void
killGroup(pid_t pid)
{
    ::kill(-pid, SIGKILL);
    ::kill(pid, SIGKILL);
}

/** Interrupted: take the running child's process group down with us. */
void
onTerminate(int sig)
{
    if (g_childGroup > 0)
        killGroup(g_childGroup);
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

/**
 * Run `fn` in a forked child with its own scratch directory, pinned to
 * `cpu` unless it is -1; collect its Record over a pipe and its rusage
 * (user+sys CPU and max RSS of the child and every worker it reaped)
 * from wait4. A child alive past `deadline_s` is killed.
 */
ChildResult
runChild(Record (*fn)(const Params &), Params p, double deadline_s,
         int cpu)
{
    ChildResult out;
    int fds[2];
    if (::pipe(fds) != 0) {
        out.error = std::string("pipe: ") + std::strerror(errno);
        return out;
    }
    const auto t0 = Clock::now();
    const pid_t pid = ::fork();
    if (pid < 0) {
        out.error = std::string("fork: ") + std::strerror(errno);
        ::close(fds[0]);
        ::close(fds[1]);
        return out;
    }
    if (pid == 0) {
        ::setpgid(0, 0);
        ::close(fds[0]);
        pinToCpu(cpu);
        p.scratch += '/';
        p.scratch += std::to_string(::getpid());
        Record r;
        try {
            fs::create_directories(p.scratch);
            r = fn(p);
        } catch (const std::exception &e) {
            r.fail(std::string("exception: ") + e.what());
        }
        std::error_code ec;
        fs::remove_all(p.scratch, ec);
        const std::string msg = r.serialize();
        std::size_t off = 0;
        while (off < msg.size()) {
            const ssize_t n =
                ::write(fds[1], msg.data() + off, msg.size() - off);
            if (n <= 0)
                ::_exit(3);
            off += static_cast<std::size_t>(n);
        }
        ::_exit(0);
    }
    ::setpgid(pid, pid);
    g_childGroup = pid;
    ::close(fds[1]);

    std::string text;
    bool timed_out = false;
    char buf[65536];
    for (;;) {
        const double left = deadline_s - secondsSince(t0);
        if (left <= 0) {
            timed_out = true;
            break;
        }
        struct pollfd pfd = {fds[0], POLLIN, 0};
        const int rv =
            ::poll(&pfd, 1, static_cast<int>(std::ceil(left * 1e3)));
        if (rv < 0 && errno == EINTR)
            continue;
        if (rv <= 0)
            continue;
        const ssize_t n = ::read(fds[0], buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        text.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    if (timed_out)
        killGroup(pid);

    int status = 0;
    struct rusage ru = {};
    while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    g_childGroup = 0;
    // Reap orphaned grandchildren of a killed child.
    while (::waitpid(-1, nullptr, WNOHANG) > 0) {
    }
    out.elapsedS = secondsSince(t0);
    out.cpuS = static_cast<double>(ru.ru_utime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec) / 1e6 +
               static_cast<double>(ru.ru_stime.tv_sec) +
               static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
    out.rssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    out.rec = Record::parse(text);

    if (timed_out)
        out.error = "overran its " + std::to_string(deadline_s) +
                    " s deadline";
    else if (WIFSIGNALED(status))
        out.error = std::string("killed by signal ") +
                    std::to_string(WTERMSIG(status));
    else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        out.error = "exited with status " +
                    std::to_string(WEXITSTATUS(status));
    else if (out.rec.failed())
        out.error = out.rec.text("failure");
    return out;
}

// ---- per-workload accumulation -----------------------------------

struct Summary
{
    double median = 0, q1 = 0, q3 = 0, min = 0, max = 0;
    std::size_t n = 0;
    std::vector<double> samples;
};

Summary
summarize(const std::vector<double> &v)
{
    Summary s;
    s.samples = v;
    s.n = v.size();
    if (v.empty())
        return s;
    s.median = median(v);
    const auto q = quartiles(v);
    s.q1 = q[0];
    s.q3 = q[1];
    s.min = *std::min_element(v.begin(), v.end());
    s.max = *std::max_element(v.begin(), v.end());
    return s;
}

struct WorkloadRun
{
    const Workload *w = nullptr;
    std::map<std::string, std::vector<double>> samples; ///< per rep
    double timedS = 0;
    double slowestRepS = 0;
    unsigned reps = 0;
    std::string digest;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    /** Per-layer metric values, one per traced pass. */
    std::map<std::string, std::vector<double>> layers;
    unsigned passes = 0;

    void
    fail(const std::string &why)
    {
        failures.push_back(why);
    }

    /** CPU to pin the next child to, or -1 for none. */
    int cpu() const { return w->singleProcess ? quietestCpu() : -1; }

    /** 10x the longest rep so far, or 10x a nominal rep (every
     *  workload's rep takes 2-5 s at full size on a 4-vCPU host). */
    double
    deadline(const Options &o) const
    {
        const double nominal = o.smoke ? 1.25 : 5.0;
        return 10.0 * std::max(nominal, slowestRepS);
    }

    /** Account one rep; `timed` reps feed the metrics. */
    void
    addRep(const ChildResult &c, bool timed)
    {
        const auto ops = static_cast<std::uint64_t>(c.rec.num("ops", 1));
        attempted += ops;
        std::string error = c.error;
        const std::string d = c.rec.text("digest");
        if (error.empty() && !d.empty()) {
            if (digest.empty())
                digest = d;
            else if (d != digest)
                error = "digest " + d + " differs from earlier reps' " +
                        digest;
        }
        if (!error.empty()) {
            failed += ops;
            fail(std::string(w->name) + ": rep failed: " + error);
            return;
        }
        failed += static_cast<std::uint64_t>(c.rec.num("ops_failed", 0));
        slowestRepS = std::max(slowestRepS, c.elapsedS);
        if (!timed)
            return;
        ++reps;
        timedS += c.elapsedS;
        for (const char *k :
             {"wall_s", "setup_s", "ckpt_save_ms", "ckpt_restore_ms"})
            samples[k].push_back(c.rec.num(k));
        samples["cpu_s"].push_back(c.cpuS);
        samples["peak_rss_mb"].push_back(c.rssMb);
        // Every rep times at least 200 windows, so its p95 has ten
        // samples beyond it; the median over reps then discounts a rep
        // a noisy neighbour hit.
        const std::vector<double> &win = c.rec.nums("window_ms");
        samples["windows"].push_back(static_cast<double>(win.size()));
        samples["window_ms.p50"].push_back(percentile(win, 0.50));
        samples["window_ms.p95"].push_back(percentile(win, 0.95));
    }

    void
    addPass(const ChildResult &c)
    {
        attempted += static_cast<std::uint64_t>(c.rec.num("ops", 1));
        if (!c.error.empty()) {
            failed += static_cast<std::uint64_t>(c.rec.num("ops", 1));
            fail(std::string(w->name) + ": traced pass failed: " +
                 c.error);
            return;
        }
        failed += static_cast<std::uint64_t>(c.rec.num("ops_failed", 0));
        ++passes;
        for (const LayerMetric &m : layerMetrics()) {
            const std::string key = std::string("layer.") + m.name;
            if (!c.rec.hasNum(key)) {
                fail(std::string(w->name) + ": traced pass lacks " +
                     m.name);
                continue;
            }
            std::vector<double> &v = layers[m.name];
            if (m.deterministic && !v.empty() &&
                v.front() != c.rec.num(key))
                fail(std::string(w->name) + ": " + m.name +
                     " differs across traced passes");
            v.push_back(c.rec.num(key));
        }
    }

    /** End-to-end summary over the timed reps. */
    Summary
    metric(const std::string &name) const
    {
        const auto it = samples.find(name);
        return summarize(it == samples.end() ? std::vector<double>{}
                                             : it->second);
    }

    bool
    enoughReps(const Options &o) const
    {
        if (o.seconds <= 0)
            return reps >= o.reps;
        const unsigned min_reps = o.repsSet ? o.reps : 3;
        return reps >= min_reps && timedS >= o.seconds;
    }
};

// ---- host fingerprint and output ---------------------------------

std::string
firstLineMatching(const std::string &path, const std::string &prefix)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        if (line.rfind(prefix, 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

std::string
loadavg()
{
    std::ifstream in("/proc/loadavg");
    std::string a, b, c;
    in >> a >> b >> c;
    return a + " " + b + " " + c;
}

std::string
compiler()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

std::string
jsonNums(const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? ", " : "") + jsonNum(v[i]);
    return out + "]";
}

struct Host
{
    long nproc = 1;
    std::string cpu, loadBefore, loadAfter;
};

bool
writeResultJson(const std::string &path, const Options &o,
                const Host &h, const std::vector<WorkloadRun> &runs,
                bool correct)
{
    std::ofstream js(path);
    js << "{\n  \"benchmark\": \"mitts_bench\",\n"
       << "  \"seed\": " << o.seed << ",\n"
       << "  \"smoke\": " << (o.smoke ? "true" : "false") << ",\n"
       << "  \"correct\": " << (correct ? "true" : "false") << ",\n"
       << "  \"accuracy\": \"unvalidated: the repository holds no "
          "hardware reference, so no error figure is reported\",\n"
       << "  \"host\": {\"nproc\": " << h.nproc
       << ", \"cpu_model\": " << jsonStr(h.cpu)
       << ", \"compiler\": " << jsonStr(compiler())
       << ", \"build_type\": " << jsonStr(MITTS_BENCH_BUILD_TYPE)
       << ", \"mitts_threads\": " << jsonStr(std::getenv("MITTS_THREADS"))
       << ", \"loadavg_before\": " << jsonStr(h.loadBefore)
       << ", \"loadavg_after\": " << jsonStr(h.loadAfter) << "},\n"
       << "  \"workloads\": {";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const WorkloadRun &r = runs[i];
        js << (i ? ",\n" : "\n") << "    " << jsonStr(r.w->name)
           << ": {\n      \"attempted\": " << r.attempted
           << ", \"failed\": " << r.failed
           << ", \"reps\": " << r.reps << ", \"windows_per_rep\": "
           << jsonNums(r.metric("windows").samples)
           << ", \"traced_passes\": "
           << r.passes << ",\n      \"digest\": " << jsonStr(r.digest)
           << ",\n      \"failures\": [";
        for (std::size_t f = 0; f < r.failures.size(); ++f)
            js << (f ? ", " : "") << jsonStr(r.failures[f]);
        js << "],\n      \"metrics\": {";
        bool first = true;
        if (r.reps > 0) {
            for (const E2eMetric &m : kE2e) {
                const Summary s = r.metric(m.name);
                js << (first ? "\n" : ",\n") << "        "
                   << jsonStr(m.name) << ": {\"unit\": "
                   << jsonStr(m.unit) << ", \"better\": "
                   << jsonStr(m.better) << ", \"median\": "
                   << jsonNum(s.median) << ", \"q1\": " << jsonNum(s.q1)
                   << ", \"q3\": " << jsonNum(s.q3)
                   << ", \"min\": " << jsonNum(s.min)
                   << ", \"max\": " << jsonNum(s.max)
                   << ", \"n\": " << s.n
                   << ", \"samples\": " << jsonNums(s.samples) << "}";
                first = false;
            }
        }
        js << "},\n      \"per_layer\": {";
        first = true;
        for (const LayerMetric &m : layerMetrics()) {
            const auto it = r.layers.find(m.name);
            if (it == r.layers.end())
                continue;
            js << (first ? "\n" : ",\n") << "        " << jsonStr(m.name)
               << ": {\"unit\": " << jsonStr(m.unit)
               << ", \"deterministic\": "
               << (m.deterministic ? "true" : "false")
               << ", \"value\": " << jsonNum(median(it->second))
               << ", \"samples\": " << jsonNums(it->second) << "}";
            first = false;
        }
        js << "}\n    }";
    }
    js << "\n  }\n}\n";
    return static_cast<bool>(js);
}

/** The one-line JSON result of the one-workload measure mode. */
std::string
contractLine(const WorkloadRun &r, bool correct, int trace)
{
    std::string m;
    if (trace == 0) {
        for (const E2eMetric &e : kE2e) {
            if (!e.gated)
                continue;
            m += (m.empty() ? "" : ", ") + jsonStr(e.name) +
                 ": {\"value\": " + jsonNum(r.metric(e.name).median) +
                 ", \"unit\": " + jsonStr(e.unit) + "}";
        }
    } else {
        for (const LayerMetric &l : layerMetrics()) {
            const auto it = r.layers.find(l.name);
            const double v =
                it == r.layers.end() ? 0.0 : median(it->second);
            m += (m.empty() ? "" : ", ") + jsonStr(l.name) +
                 ": {\"value\": " + jsonNum(v) +
                 ", \"unit\": " + jsonStr(l.unit) + "}";
        }
    }
    return std::string("{\"correct\": ") + (correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(r.attempted) +
           ", \"failed\": " + std::to_string(r.failed) +
           ", \"metrics\": {" + m + "}}";
}

} // namespace

int
main(int argc, char **argv)
{
    // Sweep farm workers exec this binary with --worker.
    if (argc == 2 && std::string(argv[1]) == "--worker") {
        std::signal(SIGPIPE, SIG_IGN);
        return mitts::orchestrate::workerMain(0, 1);
    }

    const Options o = parseArgs(argc, argv);
    ::setenv("MITTS_THREADS", "1", 1);
    std::signal(SIGTERM, onTerminate);
    std::signal(SIGINT, onTerminate);
    // Orphans of a killed rep are reparented here and reaped.
    ::prctl(PR_SET_CHILD_SUBREAPER, 1);

    const std::string exe = selfExe();
    if (exe.empty())
        usageError("cannot resolve /proc/self/exe");
    const std::string out =
        o.out.empty() ? (fs::path(exe).parent_path() / "bench-out").string()
                      : o.out;
    std::error_code ec;
    fs::create_directories(out, ec);
    if (ec)
        usageError("cannot create output directory " + out);

    Host host;
    host.nproc = std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN));
    host.cpu = firstLineMatching("/proc/cpuinfo", "model name");
    host.loadBefore = loadavg();

    Params p;
    p.seed = o.seed;
    p.smoke = o.smoke;
    p.scratch = out + "/tmp";
    p.outDir = out;
    p.selfExe = exe;
    p.workers = static_cast<unsigned>(std::min(4L, host.nproc));

    std::vector<WorkloadRun> runs;
    for (const std::string &name : o.workloads) {
        WorkloadRun r;
        r.w = findWorkload(name);
        runs.push_back(std::move(r));
    }

    // A measure-mode run must end well inside three minutes: no rep or
    // pass starts after this much time.
    const double budget_s = o.seconds > 0 ? 120.0 : 1e9;
    const auto start = Clock::now();

    if (o.trace != 1) {
        // Warm-up: one discarded rep per workload (checked, not
        // measured).
        if (!o.smoke)
            for (WorkloadRun &r : runs)
                r.addRep(runChild(r.w->rep, p, r.deadline(o), r.cpu()),
                         false);
        // Round-robin timed reps, so a slow spell on a shared host
        // hits every workload alike.
        bool more = true;
        while (more && secondsSince(start) < budget_s) {
            more = false;
            for (WorkloadRun &r : runs) {
                if (r.enoughReps(o) || (o.smoke && r.reps >= 1))
                    continue;
                const std::size_t before = r.failures.size();
                r.addRep(runChild(r.w->rep, p, r.deadline(o), r.cpu()),
                         true);
                // A failing workload stops; its failure is reported.
                if (r.failures.size() == before)
                    more = more || !r.enoughReps(o);
            }
        }
    }

    if (o.trace == 1 || (o.trace < 0 && o.traced)) {
        for (WorkloadRun &r : runs) {
            const auto t0 = Clock::now();
            do {
                const std::size_t before = r.failures.size();
                // A pass runs a workload about three times over.
                r.addPass(runChild(r.w->traced, p, 3.0 * r.deadline(o),
                                   r.cpu()));
                if (r.failures.size() != before)
                    break;
            } while (o.trace == 1 && secondsSince(t0) < o.seconds &&
                     secondsSince(start) < budget_s);
        }
    }

    host.loadAfter = loadavg();
    fs::remove_all(p.scratch, ec);

    bool correct = true;
    for (WorkloadRun &r : runs) {
        if (r.reps == 0 && o.trace != 1 && r.failures.empty())
            r.fail(std::string(r.w->name) + ": no timed rep completed");
        correct = correct && r.failures.empty();
    }

    for (const WorkloadRun &r : runs) {
        if (r.reps > 0) {
            for (const E2eMetric &m : kE2e) {
                const Summary s = r.metric(m.name);
                std::printf("%s %s %.6g %s (%.6g %.6g %.6g %.6g %zu)\n",
                            r.w->name, m.name, s.median, m.unit, s.q1,
                            s.q3, s.min, s.max, s.n);
            }
        }
        for (const LayerMetric &m : layerMetrics()) {
            const auto it = r.layers.find(m.name);
            if (it != r.layers.end())
                std::printf("%s %s %.10g %s\n", r.w->name, m.name,
                            median(it->second), m.unit);
        }
        std::printf("%s digest %s\n", r.w->name,
                    r.digest.empty() ? "-" : r.digest.c_str());
        for (const std::string &f : r.failures)
            std::fprintf(stderr, "mitts_bench: FAIL %s\n", f.c_str());
    }

    const std::string result = out + "/result.json";
    if (!writeResultJson(result, o, host, runs, correct)) {
        std::fprintf(stderr, "mitts_bench: cannot write %s\n",
                     result.c_str());
        correct = false;
    }
    std::printf("wrote %s\n", result.c_str());
    if (o.trace >= 0)
        std::printf("%s\n", contractLine(runs[0], correct, o.trace).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

/**
 * @file
 * Sweep/tune orchestrator CLI: expand a sweep spec into work units,
 * shard them across forked worker processes, and merge the results
 * deterministically (see src/orchestrate/).
 *
 *   mitts_sweep --spec fig12.sweep --out out/fig12 --workers 4
 *   mitts_sweep --spec tune.sweep --out out/tune --cache /tmp/cache
 *
 * Run with --help for the full flag reference.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "ckpt/serialize.hh"
#include "orchestrate/orchestrator.hh"
#include "orchestrate/sweep_spec.hh"
#include "orchestrate/worker.hh"

using namespace mitts;
using namespace mitts::orchestrate;

namespace
{

constexpr const char *kToolVersion = "1.0.0";

[[noreturn]] void
usage(int code)
{
    std::printf(R"(mitts_sweep - sharded sweep / GA-tuning orchestrator

  --spec FILE        sweep description (required; see DESIGN.md
                     "Sweep orchestration" for the format)
  --out DIR          output directory for results.txt and
                     summary.json (required; created if missing)
  --workers N        worker processes to fork (default 0 = evaluate
                     inline in this process; max 256)
  --cache DIR        persistent result-cache directory shared across
                     runs (default <out>/cache)
  --worker-exe PATH  binary to exec as `PATH --worker` (default: this
                     binary)
  --timeout SEC      per-unit wall-clock deadline before a worker is
                     killed and the unit re-queued (default 600;
                     0 = no deadline)
  --retries N        re-dispatches of one unit after worker crashes
                     or timeouts before giving up (default 2)
  --worker           internal: run as a worker on stdin/stdout
  --version          print version, then exit
  --help             this text

The merged results.txt and summary.json are byte-identical for any
--workers value, any cache state, and across a kill-and-resume.
Counters (units dispatched/cached/retried, per-worker wall time) go
to stdout and are the only nondeterministic output.

exit codes:
  0  success
  1  configuration or runtime error (invalid sweep spec, worker exec
     failure, retry budget exhausted, cache I/O failure)
  2  usage error: unknown flag, missing --spec/--out, malformed or
     out-of-range numeric value (--workers at most 256, --retries a
     non-negative integer, --timeout a finite non-negative number)

every rejected combination prints a one-line reason on stderr.
)");
    std::exit(code);
}

/** One-line usage-error reason on stderr, exit 2 (no usage dump —
 *  scripts keying on stderr want exactly one line). */
[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "mitts_sweep: %s (see --help)\n",
                 msg.c_str());
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string specPath;
    OrchestratorOptions opts;
    opts.workerExe = argv[0];
    bool workerMode = false;
    bool cacheSet = false;

    for (int i = 1; i < argc; ++i) try {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError(arg + " requires a value");
            return argv[++i];
        };
        if (arg == "--help") {
            usage(0);
        } else if (arg == "--version") {
            std::printf("mitts_sweep %s (record v%u, checkpoint "
                        "format v%u)\n",
                        kToolVersion, kRecordVersion,
                        ckpt::kFormatVersion);
            return 0;
        } else if (arg == "--worker") {
            workerMode = true;
        } else if (arg == "--spec") {
            specPath = value();
        } else if (arg == "--out") {
            opts.outDir = value();
        } else if (arg == "--cache") {
            opts.cacheDir = value();
            cacheSet = true;
        } else if (arg == "--worker-exe") {
            opts.workerExe = value();
        } else if (arg == "--workers") {
            opts.workers = parseUnsigned(arg, value());
            if (opts.workers > 256)
                usageError("--workers must be at most 256");
        } else if (arg == "--retries") {
            opts.maxRetries = parseUnsigned(arg, value());
        } else if (arg == "--timeout") {
            opts.unitTimeoutSec = parseF64(arg, value());
            if (opts.unitTimeoutSec < 0.0)
                usageError("--timeout must be non-negative");
        } else {
            usageError("unknown flag '" + arg + "'");
        }
    } catch (const ConfigError &e) {
        usageError(e.what());
    }

    if (workerMode) {
        // Frames only flow over stdin/stdout; a parent death shows
        // up as EOF or EPIPE, both handled in workerMain.
        std::signal(SIGPIPE, SIG_IGN);
        return workerMain(0, 1);
    }

    if (specPath.empty())
        usageError("--spec is required");
    if (opts.outDir.empty())
        usageError("--out is required");
    if (!cacheSet)
        opts.cacheDir = opts.outDir + "/cache";

    try {
        const SweepSpec spec = parseSweepFile(specPath);
        validateSweep(spec);
        const OrchestratorCounters counters = runSweep(spec, opts);
        counters.print(std::cout, spec.name);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mitts_sweep: %s\n", e.what());
        return 1;
    }
    return 0;
}

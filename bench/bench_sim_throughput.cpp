/**
 * @file
 * Host-side simulator throughput: simulated cycles per wall-clock
 * second with the quiescence-aware skip-ahead kernel on vs off, for a
 * memory-idle-heavy mix (heavily throttled MITTS shapers, long
 * globally quiescent gaps) and a memory-saturated mix (ungated, the
 * memory system busy nearly every cycle).
 *
 * Each configuration's stats dump is byte-compared across modes — a
 * failed comparison aborts the bench, so the numbers can never come
 * from divergent simulations. Results append to BENCH_simkernel.json
 * for the performance trajectory.
 */

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "bench_common.hh"
#include "system/system.hh"

using namespace mitts;

namespace
{

SystemConfig
idleHeavyMix()
{
    SystemConfig cfg = SystemConfig::multiProgram(
        {"gcc", "mcf", "libquantum", "sjeng"});
    cfg.gate = GateKind::Mitts;
    // All credits in the bottom bin: every miss waits out a long
    // inter-arrival, so the chip spends most cycles globally idle.
    std::vector<std::uint32_t> credits(cfg.binSpec.numBins, 0);
    credits[cfg.binSpec.numBins - 1] = 2;
    cfg.mittsConfigs.assign(4, BinConfig(cfg.binSpec, credits));
    return cfg;
}

SystemConfig
saturatedMix()
{
    // Ungated memory-intensive mix: queues stay occupied and some
    // component has work nearly every cycle.
    return SystemConfig::multiProgram(
        {"mcf", "libquantum", "omnetpp", "astar"});
}

SystemConfig
mixedPhaseMix()
{
    // Alternating regimes: a small credit burst in a fast bin drains
    // quickly (saturated phase), then the cores sit blocked until the
    // replenishment period (idle phase). Exercises the skip decision
    // and the rotating wake poll on every phase transition rather
    // than steady-state at either extreme.
    SystemConfig cfg = SystemConfig::multiProgram(
        {"mcf", "libquantum", "omnetpp", "astar"});
    cfg.gate = GateKind::Mitts;
    std::vector<std::uint32_t> credits(cfg.binSpec.numBins, 0);
    credits[2] = 12;
    cfg.mittsConfigs.assign(4, BinConfig(cfg.binSpec, credits));
    return cfg;
}

struct Result
{
    double wallSec = 0.0;
    double cyclesPerSec = 0.0;
    std::uint64_t skipped = 0;
    std::string stats;
};

Result
runOne(SystemConfig cfg, bool skip, Tick cycles)
{
    cfg.sim.skipAhead = skip;
    System sys(cfg);
    const auto t0 = std::chrono::steady_clock::now();
    sys.run(cycles);
    const auto t1 = std::chrono::steady_clock::now();

    Result r;
    r.wallSec = std::chrono::duration<double>(t1 - t0).count();
    r.cyclesPerSec = static_cast<double>(cycles) / r.wallSec;
    r.skipped = sys.sim().cyclesSkipped();
    std::ostringstream os;
    sys.dumpStats(os);
    r.stats = os.str();
    return r;
}

} // namespace

int
main()
{
    const Tick cycles = 2'000'000 * bench::scale();

    struct Mix
    {
        const char *name;
        SystemConfig cfg;
    };
    const std::vector<Mix> mixes = {
        {"idle_heavy", idleHeavyMix()},
        {"saturated", saturatedMix()},
        {"mixed_phase", mixedPhaseMix()},
    };

    const std::string json_path =
        bench::jsonPath("BENCH_simkernel.json");
    std::FILE *json = std::fopen(json_path.c_str(), "w");
    if (json)
        std::fprintf(json, "[\n");

    bool first = true;
    for (const auto &mix : mixes) {
        bench::header("Simulator throughput: " + std::string(mix.name) +
                      " (" + std::to_string(cycles) + " cycles)");
        const Result off = runOne(mix.cfg, false, cycles);
        const Result on = runOne(mix.cfg, true, cycles);
        MITTS_ASSERT(on.stats == off.stats,
                     "skip-ahead diverged from reference on mix ",
                     mix.name);

        const double speedup = off.wallSec / on.wallSec;
        bench::row("no-skip",
                   {{"wall_s", off.wallSec},
                    {"Mcycles/s", off.cyclesPerSec / 1e6}});
        bench::row("skip",
                   {{"wall_s", on.wallSec},
                    {"Mcycles/s", on.cyclesPerSec / 1e6},
                    {"skipped%", 100.0 * static_cast<double>(
                                     on.skipped) /
                                     static_cast<double>(cycles)},
                    {"speedup", speedup}});

        if (json) {
            for (int skip = 0; skip <= 1; ++skip) {
                const Result &r = skip ? on : off;
                std::fprintf(
                    json,
                    "%s  {\"bench\": \"simkernel\", \"mix\": \"%s\", "
                    "\"skip_ahead\": %s, \"cycles\": %llu, "
                    "\"wall_s\": %.4f, \"cycles_per_s\": %.0f, "
                    "\"cycles_skipped\": %llu, \"speedup\": %.3f}",
                    first ? "" : ",\n", mix.name,
                    skip ? "true" : "false",
                    static_cast<unsigned long long>(cycles), r.wallSec,
                    r.cyclesPerSec,
                    static_cast<unsigned long long>(r.skipped),
                    skip ? speedup : 1.0);
                first = false;
            }
        }
    }

    if (json) {
        std::fprintf(json, "\n]\n");
        std::fclose(json);
        std::printf("\nwrote %s\n", json_path.c_str());
    }
    return 0;
}

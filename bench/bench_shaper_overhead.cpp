/**
 * @file
 * Micro-benchmarks of the MITTS shaper model itself — the C++
 * analogue of the paper's hardware-cost discussion (Sec. III-E:
 * 0.0035 mm^2, <0.9% of core area). Reports the cost of a shaper
 * decision and the architectural state footprint, plus the telemetry
 * on/off overhead of a full simulation. Simulator throughput itself
 * is measured by mitts_bench (mitts_bench/README.md).
 */

#include <benchmark/benchmark.h>

#include "shaper/mitts_shaper.hh"
#include "system/system.hh"

using namespace mitts;

namespace
{

BinConfig
denseConfig()
{
    BinSpec spec;
    BinConfig cfg(spec);
    for (auto &k : cfg.credits)
        k = 64;
    return cfg;
}

void
BM_ShaperTryIssue(benchmark::State &state)
{
    MittsShaper shaper("bm", denseConfig());
    MemRequest req;
    req.core = 0;
    Tick now = 0;
    SeqNum seq = 0;
    for (auto _ : state) {
        req.seq = seq++;
        now += 7;
        benchmark::DoNotOptimize(shaper.tryIssue(req, now));
        shaper.onLlcResponse(req, (seq & 3) == 0, now + 5);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShaperTryIssue);

void
BM_ShaperStalledPath(benchmark::State &state)
{
    BinSpec spec;
    BinConfig cfg(spec); // zero credits: always stalls
    MittsShaper shaper("bm", cfg);
    MemRequest req;
    req.core = 0;
    req.seq = 1;
    Tick now = 0;
    for (auto _ : state) {
        now += 1;
        benchmark::DoNotOptimize(shaper.tryIssue(req, now));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShaperStalledPath);

void
BM_ShaperHardwareState(benchmark::State &state)
{
    MittsShaper shaper("bm", denseConfig());
    for (auto _ : state)
        benchmark::DoNotOptimize(shaper.hardwareStateBytes());
    state.counters["state_bytes"] = static_cast<double>(
        shaper.hardwareStateBytes());
}
BENCHMARK(BM_ShaperHardwareState);

/**
 * Telemetry overhead check: a 4-program simulation with telemetry
 * disabled (the default, and the baseline of the
 * zero-overhead-when-disabled guarantee), sampling only, and
 * sampling + trace events. Compare sim_cycles_per_s across the three.
 */
void
BM_SimulatorTelemetry(benchmark::State &state)
{
    SystemConfig cfg = SystemConfig::multiProgram(
        {"gcc", "mcf", "libquantum", "sjeng"});
    cfg.gate = GateKind::Mitts;
    const int mode = static_cast<int>(state.range(0));
    if (mode > 0) {
        cfg.telemetry.enabled = true;      // in-memory CSV sink
        cfg.telemetry.sampleInterval = 1'000;
        cfg.telemetry.traceEvents = mode > 1;
    }
    System sys(cfg);
    Tick cycles = 0;
    for (auto _ : state) {
        sys.run(10'000);
        cycles += 10'000;
    }
    state.counters["sim_cycles_per_s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorTelemetry)
    ->Arg(0)  // disabled
    ->Arg(1)  // sampler
    ->Arg(2)  // sampler + trace events
    ->Unit(benchmark::kMillisecond);

} // namespace

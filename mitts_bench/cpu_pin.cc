#include "cpu_pin.hh"

#include <chrono>
#include <cstdint>
#include <vector>

#include <sched.h>

#include "bench_stats.hh"

namespace mitts_bench
{

int
quietestCpu()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
        CPU_COUNT(&allowed) < 2)
        return -1;
    // Random read-modify-writes over 256 KB: cache- and branch-bound
    // like the simulator, about a millisecond per trial.
    static std::vector<std::uint32_t> buf(1 << 16, 1);
    auto trial = [] {
        const auto t0 = std::chrono::steady_clock::now();
        std::uint32_t x = 2463534242u;
        for (int i = 0; i < 200'000; ++i) {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            buf[x & (buf.size() - 1)] += x;
        }
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    int best = -1;
    double best_s = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed))
            continue;
        pinToCpu(cpu);
        const double s = median({trial(), trial(), trial()});
        if (best < 0 || s < best_s) {
            best = cpu;
            best_s = s;
        }
    }
    ::sched_setaffinity(0, sizeof(allowed), &allowed);
    return best;
}

void
pinToCpu(int cpu)
{
    if (cpu < 0)
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ::sched_setaffinity(0, sizeof(one), &one);
}

} // namespace mitts_bench

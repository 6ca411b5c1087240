/**
 * @file
 * Choosing and pinning to a quiet CPU. On a shared host, other tenants
 * slow some CPUs for seconds to minutes at a time (a busy SMT sibling,
 * interrupt load; one vCPU ran 25% slower than another for tens of
 * minutes on the host this benchmark was built on), so a timed
 * section pinned to the least disturbed CPU varies far less than one
 * placed by the scheduler.
 */

#ifndef MITTS_BENCH_CPU_PIN_HH
#define MITTS_BENCH_CPU_PIN_HH

namespace mitts_bench
{

/** The allowed CPU that runs a short fixed probe fastest right now, or
 *  -1 when fewer than two CPUs are allowed. Leaves the caller's
 *  affinity as it was. */
int quietestCpu();

/** Restrict the calling process to `cpu`; -1 leaves it unpinned. */
void pinToCpu(int cpu);

} // namespace mitts_bench

#endif // MITTS_BENCH_CPU_PIN_HH

/**
 * @file
 * Host wall-clock reads for the sweep orchestrator.
 *
 * The orchestrator is the one place in src/ that legitimately needs
 * real time: worker-timeout deadlines and per-worker wall-time
 * telemetry are host-side concerns that never feed simulated state.
 * Every read is funneled through this header so the detlint R1
 * exemptions stay in exactly one file; nothing returned from here may
 * flow into a result record, the cache or summary.json
 * (that would break the byte-identical merge contract detlint R8
 * polices).
 */

#ifndef MITTS_ORCHESTRATE_WALLCLOCK_HH
#define MITTS_ORCHESTRATE_WALLCLOCK_HH

#include <chrono>
#include <cstdint>

namespace mitts::orchestrate
{

/** Monotonic milliseconds since an arbitrary epoch. */
inline std::uint64_t
nowMs()
{
    // detlint-allow(R1): host-side timeout/telemetry clock only
    const auto t = std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            t.time_since_epoch())
            .count());
}

} // namespace mitts::orchestrate

#endif // MITTS_ORCHESTRATE_WALLCLOCK_HH

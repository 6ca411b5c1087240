#include "noc/mesh.hh"

#include <algorithm>
#include <cstdlib>

namespace mitts
{

MeshNoc::MeshNoc(const NocConfig &cfg)
    : cfg_(cfg),
      linkBusyUntil_(static_cast<std::size_t>(cfg.width) *
                         cfg.height * 4,
                     0),
      stats_("noc"),
      messages_(stats_.addCounter("messages")),
      latency_(stats_.addAverage("latency")),
      contentionCycles_(stats_.addCounter("contention_cycles"))
{
    MITTS_ASSERT(cfg.width > 0 && cfg.height > 0, "empty mesh");
}

unsigned
MeshNoc::hops(unsigned src, unsigned dst) const
{
    const NocCoord a = coordOf(src);
    const NocCoord b = coordOf(dst);
    return static_cast<unsigned>(
        std::abs(static_cast<int>(a.x) - static_cast<int>(b.x)) +
        std::abs(static_cast<int>(a.y) - static_cast<int>(b.y)));
}

unsigned
MeshNoc::nextHop(unsigned at, unsigned dst) const
{
    // Dimension-ordered routing: X first, then Y.
    const NocCoord a = coordOf(at);
    const NocCoord b = coordOf(dst);
    if (a.x < b.x)
        return at + 1;
    if (a.x > b.x)
        return at - 1;
    if (a.y < b.y)
        return at + cfg_.width;
    MITTS_ASSERT(a.y > b.y, "nextHop at destination");
    return at - cfg_.width;
}

std::size_t
MeshNoc::linkId(unsigned from, unsigned to) const
{
    // Direction encoding: 0=east, 1=west, 2=south, 3=north.
    unsigned dir;
    if (to == from + 1)
        dir = 0;
    else if (to + 1 == from)
        dir = 1;
    else if (to == from + cfg_.width)
        dir = 2;
    else
        dir = 3;
    return static_cast<std::size_t>(from) * 4 + dir;
}

Tick
MeshNoc::route(unsigned src, unsigned dst, Tick now)
{
    messages_.inc();
    if (src == dst) {
        latency_.sample(0.0);
        return 0;
    }

    Tick head = now;
    unsigned at = src;
    while (at != dst) {
        const unsigned next = nextHop(at, dst);
        Tick &busy = linkBusyUntil_[linkId(at, next)];
        if (busy > head) {
            contentionCycles_.inc(busy - head);
            head = busy;
        }
        busy = head + cfg_.linkOccupancy;
        head += cfg_.hopLatency;
        at = next;
    }

    const Tick lat = head - now;
    latency_.sample(static_cast<double>(lat));
    return lat;
}

void
MeshNoc::checkpoint(ckpt::Archive &a)
{
    const std::size_t links = linkBusyUntil_.size();
    a.vecU64(linkBusyUntil_);
    a.check(linkBusyUntil_.size() == links, "noc link count mismatch");
    a.group(stats_);
}

} // namespace mitts

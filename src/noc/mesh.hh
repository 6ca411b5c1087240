/**
 * @file
 * 2D-mesh network-on-chip model.
 *
 * The taped-out MITTS host is a 25-core OpenPiton chip: a 5x5 mesh
 * with a distributed, shared L2 whose slices sit next to the cores —
 * the reason the paper's hybrid shaper placement exists at all
 * (Sec. III-D: "in a shared LLC, memory requests can be mapped to
 * different cache banks (directories)"). This model adds the mesh
 * between the L1s and the LLC banks: dimension-ordered (XY) routing,
 * a fixed per-hop latency, and per-link serialization of messages.
 *
 * Disabled by default in SystemConfig so the Table II experiments
 * match the paper's SDSim setup; an ablation shows its effect.
 */

#ifndef MITTS_NOC_MESH_HH
#define MITTS_NOC_MESH_HH

#include <vector>

#include "base/logging.hh"
#include "base/stats.hh"
#include "base/types.hh"
#include "ckpt/serialize.hh"

namespace mitts
{

struct NocConfig
{
    bool enabled = false;
    unsigned width = 5;   ///< mesh columns (OpenPiton: 5)
    unsigned height = 5;  ///< mesh rows (OpenPiton: 5)
    Tick hopLatency = 2;  ///< router + link traversal per hop
    /** Cycles a message occupies each link (64B + header on a
     *   32B-wide channel). */
    Tick linkOccupancy = 2;
};

/** Node coordinate on the mesh. */
struct NocCoord
{
    unsigned x;
    unsigned y;
};

class MeshNoc : public ckpt::Serializable
{
  public:
    explicit MeshNoc(const NocConfig &cfg);

    unsigned numNodes() const { return cfg_.width * cfg_.height; }

    NocCoord
    coordOf(unsigned node) const
    {
        MITTS_ASSERT(node < numNodes(), "node out of range");
        return {node % cfg_.width, node / cfg_.width};
    }

    /** Manhattan hop count between two nodes. */
    unsigned hops(unsigned src, unsigned dst) const;

    /**
     * Route one message src -> dst entering the network at `now`,
     * reserving each link along the XY path in order.
     * @return the delivery latency (arrival - now).
     */
    Tick route(unsigned src, unsigned dst, Tick now);

    /** Contention-free latency for the same path (testing). */
    Tick
    idealLatency(unsigned src, unsigned dst) const
    {
        return static_cast<Tick>(hops(src, dst)) * cfg_.hopLatency;
    }

    stats::Group &statsGroup() { return stats_; }
    double avgLatency() const { return latency_.mean(); }

  protected:
    void checkpoint(ckpt::Archive &a) override;

  private:
    /** Link id for the hop from `from` toward `to` (adjacent). */
    std::size_t linkId(unsigned from, unsigned to) const;

    /** Next node along the XY route from `at` toward `dst`. */
    unsigned nextHop(unsigned at, unsigned dst) const;

    // detlint-transient(construction-time config; never mutated after build)
    NocConfig cfg_;
    /** busy-until time per directed link (4 per node). */
    std::vector<Tick> linkBusyUntil_;

    stats::Group stats_;
    stats::Counter &messages_;
    stats::Average &latency_;
    stats::Counter &contentionCycles_;
};

} // namespace mitts

#endif // MITTS_NOC_MESH_HH

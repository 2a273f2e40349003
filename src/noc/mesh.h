/**
 * @file
 * 4x4 mesh network-on-chip contention model (Table III).
 *
 * Each hop is a 2-stage speculative router pipeline plus a 1-cycle link
 * traversal (3 cycles at zero load).  Links are modeled with per-link
 * booking: a flit occupies its link for one cycle, so bursts of requests
 * (e.g. an over-aggressive N8L prefetcher, Fig. 5) queue up behind each
 * other.  The other 15 tiles inject background traffic modeled as random
 * extra link occupancy with a configurable utilization, which sets the
 * base LLC round-trip latency and amplifies self-induced queueing.
 */

#ifndef DCFB_NOC_MESH_H
#define DCFB_NOC_MESH_H

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "obs/registry.h"

namespace dcfb::noc {

/** Mesh configuration. */
struct MeshConfig
{
    unsigned dim = 4;            //!< dim x dim tiles
    unsigned routerCycles = 2;   //!< router pipeline depth
    unsigned linkCycles = 1;     //!< link traversal
    double bgUtilization = 0.20; //!< background load per link (0..1)
    std::uint64_t seed = 99;
};

/**
 * Latency/contention model of a 2D mesh with XY routing.
 */
class MeshModel
{
  public:
    explicit MeshModel(const MeshConfig &config);

    /**
     * Deliver a packet of @p flits flits from tile @p src to tile @p dst,
     * injected at cycle @p now.  Returns the arrival cycle at @p dst and
     * books link occupancy along the route.
     */
    Cycle traverse(unsigned src, unsigned dst, Cycle now, unsigned flits);

    /** Zero-load latency between two tiles (tests, reporting). */
    Cycle zeroLoadLatency(unsigned src, unsigned dst) const;

    /** Manhattan hop count between two tiles. */
    unsigned hops(unsigned src, unsigned dst) const;

    unsigned numTiles() const { return cfg.dim * cfg.dim; }
    const obs::StatRegistry &stats() const { return statReg; }
    obs::StatRegistry &stats() { return statReg; }

  private:
    /** Directions for link indexing. */
    enum Dir { East, West, North, South, NumDirs };

    /** Link bookkeeping: the first cycle the link is free again. */
    std::size_t linkIndex(unsigned tile, Dir dir) const;

    /** Cross one link at or after @p at; returns cycle the tail flit is
     *  across.  Applies background-traffic slowdown. */
    Cycle crossLink(std::size_t link, Cycle at, unsigned flits);

    MeshConfig cfg;
    std::vector<Cycle> linkFree;
    Rng rng;
    obs::StatRegistry statReg;
    obs::LazyCounter cPackets, cFlits, cTotalLatency, cLinkCrossings,
        cQueueCycles;
};

} // namespace dcfb::noc

#endif // DCFB_NOC_MESH_H

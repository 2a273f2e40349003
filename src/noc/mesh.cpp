#include "noc/mesh.h"

#include <cassert>
#include <cstdlib>

namespace dcfb::noc {

MeshModel::MeshModel(const MeshConfig &config)
    : cfg(config), linkFree(std::size_t{config.dim} * config.dim * NumDirs, 0),
      rng(config.seed), cPackets(statReg.lazyCounter("noc_packets")),
      cFlits(statReg.lazyCounter("noc_flits")),
      cTotalLatency(statReg.lazyCounter("noc_total_latency")),
      cLinkCrossings(statReg.lazyCounter("noc_link_crossings")),
      cQueueCycles(statReg.lazyCounter("noc_queue_cycles"))
{
    assert(cfg.dim >= 1);
    assert(cfg.bgUtilization >= 0.0 && cfg.bgUtilization < 0.95);
}

std::size_t
MeshModel::linkIndex(unsigned tile, Dir dir) const
{
    return std::size_t{tile} * NumDirs + dir;
}

unsigned
MeshModel::hops(unsigned src, unsigned dst) const
{
    int sx = static_cast<int>(src % cfg.dim), sy = static_cast<int>(src / cfg.dim);
    int dx = static_cast<int>(dst % cfg.dim), dy = static_cast<int>(dst / cfg.dim);
    return static_cast<unsigned>(std::abs(sx - dx) + std::abs(sy - dy));
}

Cycle
MeshModel::zeroLoadLatency(unsigned src, unsigned dst) const
{
    // Every hop costs router + link; injection at the source router also
    // pays one router pass even for local delivery.
    unsigned h = hops(src, dst);
    return cfg.routerCycles +
        Cycle{h} * (cfg.routerCycles + cfg.linkCycles);
}

Cycle
MeshModel::crossLink(std::size_t link, Cycle at, unsigned flits)
{
    Cycle start = std::max(at, linkFree[link]);
    // Background traffic: each of the other tiles keeps this link busy a
    // fraction of the time.  Model it as a geometric number of stolen
    // cycles in front of us with success probability (1 - u).
    double u = cfg.bgUtilization;
    if (u > 0.0) {
        while (rng.chance(u))
            ++start;
    }
    // The link stays busy for the whole packet, but the head flit is
    // through after one link cycle (wormhole); the tail's serialization
    // shows up as queueing for the *next* packet on this link.
    linkFree[link] = start + flits * cfg.linkCycles;
    cLinkCrossings.add();
    cQueueCycles.add(start - at);
    return start + cfg.linkCycles;
}

Cycle
MeshModel::traverse(unsigned src, unsigned dst, Cycle now, unsigned flits)
{
    assert(src < numTiles() && dst < numTiles());
    cPackets.add();
    cFlits.add(flits);

    unsigned x = src % cfg.dim, y = src / cfg.dim;
    unsigned tx = dst % cfg.dim, ty = dst / cfg.dim;
    Cycle t = now + cfg.routerCycles; // injection router pass

    // XY routing, wormhole-style: the head flit pays router+link per
    // hop (plus any link queueing); the body's serialization delay is
    // paid once at the destination, while each link stays booked for
    // the full packet length.
    while (x != tx) {
        Dir dir = x < tx ? East : West;
        unsigned tile = y * cfg.dim + x;
        t = crossLink(linkIndex(tile, dir), t, flits) + cfg.routerCycles;
        x = x < tx ? x + 1 : x - 1;
    }
    while (y != ty) {
        Dir dir = y < ty ? South : North;
        unsigned tile = y * cfg.dim + x;
        t = crossLink(linkIndex(tile, dir), t, flits) + cfg.routerCycles;
        y = y < ty ? y + 1 : y - 1;
    }
    cTotalLatency.add(t - now);
    return t;
}

} // namespace dcfb::noc

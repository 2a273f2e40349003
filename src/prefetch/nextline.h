/**
 * @file
 * Next-X-line sequential prefetchers (NL, N2L, N4L, N8L).
 *
 * Upon every demand access to a cache block, prefetch the next X blocks
 * that are not already present (Section IV).  These are the unselective
 * baselines whose timeliness/pollution trade-off motivates SN4L
 * (Figs. 3-5).
 */

#ifndef DCFB_PREFETCH_NEXTLINE_H
#define DCFB_PREFETCH_NEXTLINE_H

#include "prefetch/prefetcher.h"

namespace dcfb::prefetch {

/**
 * NXL prefetcher with configurable depth.
 */
class NextLinePrefetcher final : public InstrPrefetcher
{
  public:
    /**
     * @param l1i_  the cache to prefetch into
     * @param depth X in next-X-line (1 = classic NL)
     */
    NextLinePrefetcher(mem::L1iCache &l1i_, unsigned depth_)
        : l1i(l1i_), depth(depth_)
    {}

    std::string
    name() const override
    {
        return depth == 1 ? "NL" : "N" + std::to_string(depth) + "L";
    }

    void
    onDemandAccess(Addr block_addr, bool hit) override
    {
        (void)hit;
        pending = block_addr; // issue from tick to model the port limit
        havePending = true;
    }

    void
    tick(Cycle now) override
    {
        if (!havePending)
            return;
        havePending = false;
        for (unsigned i = 1; i <= depth; ++i)
            l1i.prefetch(pending + Addr{i} * kBlockBytes, now);
    }

  private:
    mem::L1iCache &l1i;
    unsigned depth;
    Addr pending = 0;
    bool havePending = false;
};

} // namespace dcfb::prefetch

#endif // DCFB_PREFETCH_NEXTLINE_H

/**
 * @file
 * Recently-Looked-Up (RLU) filter (Section V.B).
 *
 * An 8-entry structure holding the addresses of the blocks most recently
 * looked up in the L1i, either by the prefetcher or by the processor's
 * demand stream.  Prefetch candidates that hit in the RLU are dropped
 * without a cache lookup, which is what keeps the proactive SN4L+Dis
 * engine's lookup count at Shotgun's level (Fig. 14).
 */

#ifndef DCFB_PREFETCH_RLU_H
#define DCFB_PREFETCH_RLU_H

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "obs/registry.h"

namespace dcfb::prefetch {

/**
 * Small fully-associative FIFO of recently looked-up block addresses.
 */
class Rlu
{
  public:
    /** @param entries_ filter size; 0 disables filtering entirely. */
    explicit Rlu(std::size_t entries_ = 8)
        : ring(entries_, kInvalidAddr),
          cChecks(statReg.lazyCounter("rlu_checks")),
          cHits(statReg.lazyCounter("rlu_hits"))
    {}

    /** Record a lookup of @p block_addr. */
    void
    touch(Addr block_addr)
    {
        if (ring.empty())
            return;
        Addr key = blockAlign(block_addr);
        if (containsNoStat(key))
            return;
        ring[head] = key;
        head = (head + 1) % ring.size();
    }

    /** Membership test (counts filter statistics). */
    bool
    contains(Addr block_addr)
    {
        cChecks.add();
        if (containsNoStat(blockAlign(block_addr))) {
            cHits.add();
            return true;
        }
        return false;
    }

    std::size_t size() const { return ring.size(); }

    /** Storage: entries x block-address tag (~52 bits each). */
    std::uint64_t storageBits() const { return ring.size() * 52; }

    const obs::StatRegistry &stats() const { return statReg; }
    obs::StatRegistry &stats() { return statReg; }

  private:
    bool
    containsNoStat(Addr key) const
    {
        for (Addr a : ring) {
            if (a == key)
                return true;
        }
        return false;
    }

    std::vector<Addr> ring;
    std::size_t head = 0;
    obs::StatRegistry statReg;
    // Lazily bound: a key is reported only once it fires (see
    // obs::LazyCounter).
    obs::LazyCounter cChecks;
    obs::LazyCounter cHits;
};

} // namespace dcfb::prefetch

#endif // DCFB_PREFETCH_RLU_H

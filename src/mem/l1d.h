/**
 * @file
 * L1 data cache: 32 KB, 8-way, 4-cycle load-to-use, 32 MSHRs
 * (Table III).
 *
 * The L1d exists so that (a) backend load latencies respond to the data
 * working set and (b) the LLC holds a realistic mix of instruction and
 * data blocks, which the DV-LLC experiments (Section VII.J) depend on.
 * It is latency-only: misses return their completion cycle immediately
 * and the backend models the overlap via the ROB.
 */

#ifndef DCFB_MEM_L1D_H
#define DCFB_MEM_L1D_H

#include "common/types.h"
#include "mem/cache.h"
#include "mem/llc.h"
#include "obs/registry.h"

namespace dcfb::mem {

/** L1d configuration. */
struct L1dConfig
{
    std::size_t capacityBytes = 32 * 1024;
    unsigned assoc = 8;
    Cycle hitLatency = 4;
};

/**
 * Latency-model data cache in front of the shared LLC.
 */
class L1dCache
{
  public:
    L1dCache(const L1dConfig &config, Llc &llc_)
        : cfg(config), llc(llc_),
          array(SetAssocCache<Empty>::fromBytes(config.capacityBytes,
                                                config.assoc)),
          cAccesses(statReg.lazyCounter("l1d_accesses")),
          cStores(statReg.lazyCounter("l1d_stores")),
          cHits(statReg.lazyCounter("l1d_hits")),
          cMisses(statReg.lazyCounter("l1d_misses"))
    {}

    /** Access @p addr at @p now; returns the data-ready cycle. */
    Cycle
    access(Addr addr, Cycle now, bool is_store)
    {
        cAccesses.add();
        if (is_store)
            cStores.add();
        if (array.touchOrAllocate(addr).hit) {
            cHits.add();
            return now + cfg.hitLatency;
        }
        cMisses.add();
        auto res = llc.access(blockAlign(addr), now + cfg.hitLatency,
                              /*is_instruction=*/false);
        return res.ready;
    }

    /** Functional warmup insert (no timing, no statistics). */
    void
    warmInsert(Addr addr)
    {
        array.touchOrAllocate(addr);
    }

    /** Number of sets. */
    unsigned sets() const { return array.sets(); }

    /** Set that @p addr maps to. */
    unsigned setIndex(Addr addr) const { return array.setIndex(addr); }

    const obs::StatRegistry &stats() const { return statReg; }
    obs::StatRegistry &stats() { return statReg; }

  private:
    struct Empty
    {};

  public:
    /** What warmInsert() calls leave behind (sim::WarmCache). */
    using WarmState = SetAssocCache<Empty>::WarmState;

    WarmState saveWarm() const { return array.saveWarm(); }

    /** Restore @p s into a freshly constructed cache of the same geometry. */
    void restoreWarm(const WarmState &s) { array.restoreWarm(s); }

  private:
    L1dConfig cfg;
    Llc &llc;
    obs::StatRegistry statReg;
    SetAssocCache<Empty> array;
    // Lazily bound: a key is reported only once it fires (see
    // obs::LazyCounter).
    obs::LazyCounter cAccesses, cStores, cHits, cMisses;
};

} // namespace dcfb::mem

#endif // DCFB_MEM_L1D_H

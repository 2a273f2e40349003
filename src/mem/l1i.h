/**
 * @file
 * L1 instruction cache with MSHRs, optional prefetch buffer, and the
 * per-line metadata the SN4L prefetcher needs (prefetch flag + 4-bit
 * local prefetch status, Section V.A).
 *
 * The L1i is where the paper's metrics are measured:
 *  - miss classification into sequential vs. discontinuity (Fig. 2),
 *  - covered memory access latency, CMAL (Figs. 4/13),
 *  - external bandwidth usage (Fig. 5),
 *  - cache lookups (Fig. 14),
 *  - prefetch usefulness (feeds SeqTable updates).
 *
 * Prefetchers do not see a wrong-path flag: hardware cannot distinguish
 * wrong-path fetches at access time, so listeners fire identically; only
 * the *statistics* separate correct- and wrong-path demand traffic.
 */

#ifndef DCFB_MEM_L1I_H
#define DCFB_MEM_L1I_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "mem/cache.h"
#include "mem/llc.h"
#include "mem/prefetch_buffer.h"
#include "obs/registry.h"

namespace dcfb::rt {
class FaultInjector;
class InvariantRegistry;
} // namespace dcfb::rt

namespace dcfb::mem {

/** L1i configuration (Table III). */
struct L1iConfig
{
    std::size_t capacityBytes = 32 * 1024;
    unsigned assoc = 8;
    Cycle hitLatency = 4;       //!< pipelined; hits do not stall fetch
    unsigned mshrs = 32;
    bool usePrefetchBuffer = false; //!< NXL study / Shotgun configurations
    std::size_t prefetchBufferEntries = 64;
    bool fetchFootprints = false;   //!< VL-ISA: fetch BFs with blocks
};

/** Per-line metadata. */
struct L1iMeta
{
    bool prefetched = false;     //!< brought in by the prefetcher, unused
    bool demanded = false;       //!< demand-accessed at least once
    std::uint8_t localStatus = 0xf; //!< SN4L 4-bit local prefetch status
    Cycle fillLatency = 0;       //!< LLC round trip that filled the line
    Cycle filledAt = 0;          //!< cycle the fill completed
};

/**
 * Observer interface for prefetchers and instrumentation.
 */
class L1iListener
{
  public:
    virtual ~L1iListener() = default;

    /** Every demand access (hit or miss), correct or wrong path. */
    virtual void onDemandAccess(Addr block_addr, bool hit)
    {
        (void)block_addr;
        (void)hit;
    }

    /** A demand miss; @p sequential means spatially next to the last
     *  demanded block. */
    virtual void onDemandMiss(Addr block_addr, bool sequential)
    {
        (void)block_addr;
        (void)sequential;
    }

    /** A block arrived from the LLC (demand or prefetch fill). */
    virtual void
    onFill(Addr block_addr, bool was_prefetch, const BranchFootprint *bf)
    {
        (void)block_addr;
        (void)was_prefetch;
        (void)bf;
    }

    /** A block left the cache. */
    virtual void onEvict(Addr block_addr, bool was_prefetch, bool demanded)
    {
        (void)block_addr;
        (void)was_prefetch;
        (void)demanded;
    }

    /** First demand use of a line the prefetcher brought in. */
    virtual void onPrefetchUsed(Addr block_addr) { (void)block_addr; }
};

/**
 * The L1 instruction cache.
 */
class L1iCache
{
  public:
    /** Outcome of a demand access. */
    struct DemandResult
    {
        bool hit = false;          //!< in cache or prefetch buffer
        Cycle ready = 0;           //!< cycle the instructions are usable
        bool fromPrefetchBuffer = false;
        bool hitInFlight = false;  //!< merged with an outstanding fill
    };

    /** Outcome of a prefetch attempt. */
    enum class PfOutcome {
        InCache,  //!< already present: no request sent
        InBuffer, //!< already in the prefetch buffer
        InFlight, //!< an MSHR already tracks this block
        Issued,   //!< request sent to the LLC
        NoMshr,   //!< dropped: MSHR file full
    };

    L1iCache(const L1iConfig &config, Llc &llc_);

    void setListener(L1iListener *l) { listener = l; }

    /** Secondary, instrumentation-only observer (benches/experiments);
     *  receives the same callbacks after the primary listener. */
    void setObserver(L1iListener *l) { observer = l; }

    /** Attach a fault injector perturbing memory responses (delay faults
     *  at issue, prefetch-response drops at fill completion).  nullptr
     *  restores unperturbed behaviour. */
    void setFaultInjector(rt::FaultInjector *f) { injector = f; }

    /**
     * Register this cache's structural invariants: MSHR uniqueness and
     * occupancy bounds, miss-resolution latency (every outstanding miss
     * resolves within @p miss_resolution_bound cycles of issue), line
     * metadata consistency, and hit/miss counter conservation.  All
     * checks are read-only (no statistics are perturbed).
     */
    void registerInvariants(rt::InvariantRegistry &reg,
                            Cycle miss_resolution_bound);

    /** Read-only view of one outstanding MSHR (failure snapshots). */
    struct MshrView
    {
        Addr blockAddr;
        Cycle issued;
        Cycle ready;
        bool isPrefetch;
        bool demanded;
    };

    /** Snapshot of the outstanding-miss file (failure snapshots/tests). */
    std::vector<MshrView> mshrState() const;

    /**
     * Demand fetch of the block containing @p addr at cycle @p now.
     * @p wrong_path marks squashable wrong-path fetches (statistics
     * only; behaviour is identical).
     */
    DemandResult demandAccess(Addr addr, Cycle now,
                              bool wrong_path = false);

    /** Prefetch the block containing @p addr (directly into the cache,
     *  or into the prefetch buffer when configured). */
    PfOutcome prefetch(Addr addr, Cycle now);

    /** Complete fills whose data has arrived by @p now. */
    void tick(Cycle now);

    /** Functional warmup: install the block as a demanded line without
     *  timing or statistics. */
    void warmInsert(Addr addr);

    /** Number of sets. */
    unsigned sets() const { return array.sets(); }

    /** Set that @p addr maps to. */
    unsigned setIndex(Addr addr) const { return array.setIndex(addr); }

    /** What warmInsert() calls leave behind (sim::WarmCache). */
    struct WarmState
    {
        SetAssocCache<L1iMeta>::WarmState lines;
        Addr lastDemandBlock = kInvalidAddr;
    };

    WarmState saveWarm() const { return {array.saveWarm(), lastDemandBlock}; }

    /** Restore @p s into a freshly constructed cache of the same geometry. */
    void
    restoreWarm(const WarmState &s)
    {
        array.restoreWarm(s.lines);
        lastDemandBlock = s.lastDemandBlock;
    }

    /** Counted cache lookup (Fig. 14): presence in cache or buffer. */
    bool lookup(Addr addr);

    /** Presence probe without statistics (internal/tests). */
    bool probe(Addr addr) const;

    /** True when an MSHR tracks the block. */
    bool inFlight(Addr addr) const;

    /** Completion cycle of the outstanding fill for @p addr (0 when no
     *  MSHR tracks the block).  Used by BTB-directed engines that stall
     *  until a block arrives for pre-decoding. */
    Cycle fillReadyCycle(Addr addr) const;

    /** Per-line metadata (nullptr when not resident). */
    L1iMeta *lineMeta(Addr addr);

    /** The branch footprint delivered with the block's last fill. */
    const BranchFootprint *footprintFor(Addr addr) const;

    const obs::StatRegistry &stats() const { return statReg; }
    obs::StatRegistry &stats() { return statReg; }
    const L1iConfig &config() const { return cfg; }

  private:
    struct MshrEntry
    {
        Addr blockAddr = kInvalidAddr;
        Cycle issued = 0;
        Cycle ready = 0;
        bool isPrefetch = false;
        bool demanded = false;
        Cycle demandCycle = 0;
        bool bfValid = false;
        BranchFootprint bf;
    };

    MshrEntry *findMshr(Addr block_addr);
    const MshrEntry *findMshr(Addr block_addr) const;

    /** Issue a fill to the LLC and allocate an MSHR. */
    MshrEntry &issueFill(Addr block_addr, Cycle now, bool is_prefetch);

    /** Install a completed fill into the cache (or buffer). */
    void installFill(const MshrEntry &entry);

    /** Handle the CMAL/use bookkeeping for a demand hit on a
     *  prefetched resident line. */
    void notePrefetchedLineUse(Addr block_addr, L1iMeta &meta, Cycle now,
                               bool sequential);

    /** Record eviction statistics/attribution for a victim line. */
    void noteEviction(Addr block_addr, const L1iMeta &meta, Cycle now);

    /** Timing of a fill that landed in the prefetch buffer. */
    struct BufferFill
    {
        Cycle latency = 0;
        Cycle filledAt = 0;
    };

    L1iConfig cfg;
    Llc &llc;
    SetAssocCache<L1iMeta> array;
    PrefetchBuffer buffer;
    std::unordered_map<Addr, BufferFill> bufferFillLatency;
    std::unordered_map<Addr, BranchFootprint> footprints;
    std::vector<MshrEntry> mshrs;
    L1iListener *listener = nullptr;
    L1iListener *observer = nullptr;
    rt::FaultInjector *injector = nullptr;
    Addr lastDemandBlock = kInvalidAddr;
    obs::StatRegistry statReg;

    // Typed handles for the per-access hot path (registered once in the
    // constructor; no string hashing per event).
    obs::Counter cLookups, cAccesses, cWpAccesses, cHits, cPfBufferHits,
        cMisses, cSeqMisses, cDiscMisses, cWpMisses, cEvictions,
        cExternalRequests, cPfAttempts, cPfIssued, cPfUseful, cPfLate,
        cPfUseless, cPfDroppedMshr, cMshrPressure, cCmalCovered, cCmalFull,
        cDemandMissCycles;
    obs::Histogram hMissLatency, hPfToUse, hMshrOccupancy;
};

} // namespace dcfb::mem

#endif // DCFB_MEM_L1I_H

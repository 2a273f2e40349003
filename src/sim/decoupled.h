/**
 * @file
 * Decoupled fetch engine: Shotgun (BTB-directed) and FDIP.
 *
 * A branch-prediction unit (BPU) runs ahead of fetch, discovering basic
 * blocks with its BTB structures and pushing them into the FTQ; the
 * fetch engine drains the FTQ.  Instruction prefetching falls out of the
 * BPU's lookahead: Shotgun prefetches the blocks its U-BTB footprints
 * name, and FDIP queues the blocks of every FTQ append.
 *
 * The failure mode the paper dissects in Section III is modeled
 * faithfully: a BTB miss *stalls the BPU* until the missing block is
 * fetched and pre-decoded (reactive prefill), during which the fetch
 * engine drains the FTQ dry and the core starves ("empty-FTQ" stalls,
 * Table I).  Shotgun's U-BTB entries carry call/return footprints that
 * only the retired stream can build: entries restored by prefill have
 * no footprints, so no region prefetch and no proactive C-BTB prefill
 * happen for them (footprint misses, Fig. 1).
 */

#ifndef DCFB_SIM_DECOUPLED_H
#define DCFB_SIM_DECOUPLED_H

#include <cstdint>
#include <vector>

#include "frontend/ftq.h"
#include "frontend/shotgun_btb.h"
#include "isa/predecoder.h"
#include "prefetch/btb_prefetch_buffer.h"
#include "sim/fetch.h"

namespace dcfb::rt {
class InvariantRegistry;
} // namespace dcfb::rt

namespace dcfb::prefetch {
class Fdip;
} // namespace dcfb::prefetch

namespace dcfb::sim {

/**
 * BTB-directed frontend (Shotgun) and the FDIP competitor,
 * whose BPU runs ahead through the conventional BTB and feeds the
 * prefetch::Fdip unit from every FTQ append.
 */
class DecoupledFetchEngine final : public FetchEngine, public mem::L1iListener
{
  public:
    enum class Kind { Shotgun, Fdip };

    /**
     * @param conv_btb conventional BTB driving the BPU (Kind::Fdip only)
     * @param fdip     FTQ-append consumer (Kind::Fdip only)
     */
    DecoupledFetchEngine(const FetchConfig &config, Kind kind_,
                         workload::TraceWalker &walker, mem::L1iCache &l1i,
                         frontend::Tage &tage,
                         const isa::Predecoder &predecoder,
                         const frontend::ShotgunBtbConfig &shotgun_cfg,
                         frontend::Btb *conv_btb = nullptr,
                         prefetch::Fdip *fdip = nullptr);

    /** Produce instructions for cycle @p now: the fetch stage drains
     *  the FTQ, then the BPU discovers the next basic block. */
    void cycle(Cycle now);

    /** Why nothing (more) was delivered as of @p now. */
    StallReason stallReason(Cycle now) const;

    /** L1i fill hook: proactive BTB prefill from prefetched blocks. */
    void onFill(Addr block_addr, bool was_prefetch,
                const mem::BranchFootprint *bf) override;

    frontend::ShotgunBtb &shotgunBtb() { return sgBtb; }

    /** Register FTQ-ordering and lookahead invariants. */
    void registerInvariants(rt::InvariantRegistry &reg);

    // Progress/occupancy accessors (failure snapshots/tests).
    std::size_t ftqSize() const { return ftq.size(); }
    std::uint64_t fetchIndex() const { return fetchIdx; }
    std::uint64_t bpuIndex() const { return bpuIdx; }

  private:
    /** The retired-trace entry at absolute index @p idx. */
    const workload::TraceEntry &entryAt(std::uint64_t idx);

    /** Index of the terminating branch of the BB starting at @p idx. */
    std::uint64_t scanTerminator(std::uint64_t idx);

    /** One BPU step: discover the next basic block. */
    void bpuStep(Cycle now);

    /** Engine-specific BTB handling for the basic block ending at
     *  @p term_idx; returns false when the BPU must stall (reactive
     *  prefill in progress).  Both engines key their BTBs on the
     *  terminating branch's PC, not the block start. */
    bool shotgunLookup(std::uint64_t term_idx, Cycle now);
    bool fdipLookup(std::uint64_t term_idx, Cycle now);

    /** Begin a reactive prefill stall for the block at @p addr,
     *  counting it against @p stat. */
    void reactiveStall(Addr addr, Cycle now, obs::LazyCounter &stat);

    /** Prefetch + pre-decode the blocks named by a Shotgun footprint. */
    void footprintPrefetch(Addr anchor_block, std::uint8_t bits, Cycle now);

    /** Pre-decode @p block_addr into the 32-entry BTB prefetch buffer. */
    void prefillFromBlock(Addr block_addr);

    /** Fetch-side bookkeeping (footprint construction). */
    void recordFetched(const workload::TraceEntry &e);

    /** Fetch stage: drain the FTQ into the fetch buffer. */
    void fetchStep(Cycle now);

    Kind kind;
    const isa::Predecoder &pd;

    frontend::ShotgunBtb sgBtb;
    prefetch::BtbPrefetchBuffer btbPb; //!< Shotgun: 32-entry prefill buffer
    frontend::Btb *convBtb;            //!< Fdip: the conventional BTB
    prefetch::Fdip *fdip;              //!< Fdip: FTQ-append consumer

    frontend::Ftq ftq;

    /**
     * Trace lookahead between the fetch cursor and the BPU cursor, as a
     * power-of-two ring indexed by *absolute* trace index (entry i lives
     * at look[i & lookMask]).  The window [lookBase, lookEnd) is
     * contiguous; consuming the front is just advancing lookBase.  The
     * ring grows (rarely: the window is bounded by the FTQ depth times
     * the BB-scan bound) and is then reused for the rest of the run --
     * the previous deque backing churned allocations every cycle.
     */
    std::vector<workload::TraceEntry> look;
    std::size_t lookMask = 0;
    std::uint64_t lookBase = 0;
    std::uint64_t lookEnd = 0;
    std::uint64_t bpuIdx = 0;
    std::uint64_t fetchIdx = 0;

    /** Ensure lookahead entries exist up to absolute index @p idx. */
    void extendLook(std::uint64_t idx);

    Cycle bpuStalledUntil = 0;
    bool targetMispredict = false; //!< stale stored target this BB
    Addr wrongPathTarget = kInvalidAddr; //!< where the BPU went instead
    bool lastCycleEmptyFtq = false;

    /** Shotgun footprint construction state. */
    struct CallRecord
    {
        Addr callPc = kInvalidAddr;
        Addr targetBlock = 0; //!< block number of the callee entry
        std::uint8_t fp = 0;
    };
    std::vector<CallRecord> recStack;
    struct RetRecord
    {
        Addr callPc = kInvalidAddr;
        Addr retBlock = 0;
        std::uint8_t fp = 0;
        unsigned remaining = 0;
    };
    std::vector<RetRecord> retRecords;

    // Typed handles for the per-cycle hot path.
    obs::Counter cEmptyFtqStallCycles, cBpuStallCycles, cFtqPushes;
    obs::Histogram hFtqOcc;
    // Lazily-bound handles for per-event sites (see obs::LazyCounter).
    obs::LazyCounter cReactiveFills, cSgPrefillBlocks,
        cSgFootprintPrefetches, cSgCbtbFills, cSgRegionSkipped,
        cBpuTargetMispredicts, cBpuMispredicts, cBpuRasMispredicts,
        cSquashes, cWrongPathPrefetches, cCbtbMisses, cUbtbMisses,
        cRibMisses, cFdipBtbMisses;
};

} // namespace dcfb::sim

#endif // DCFB_SIM_DECOUPLED_H

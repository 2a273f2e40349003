/**
 * @file
 * SN4L+Dis+BTB: the paper's proposed prefetcher (Section V).
 *
 * Three cooperating mechanisms behind one proactive engine:
 *
 *  - **SN4L** (Section V.A): a selective next-four-line prefetcher.  A
 *    16 K-entry tagless SeqTable holds a 1-bit usefulness status per
 *    block; only next-4 candidates whose bit is set are prefetched.
 *    Status updates: set on demand miss and on first use of a prefetched
 *    block, reset when a prefetched block is evicted unused.
 *
 *  - **Dis** (Section V.B): a discontinuity prefetcher.  A 4 K-entry
 *    direct-mapped, 4-bit-partially-tagged DisTable records the offset
 *    of the branch that caused a discontinuity miss; on replay the block
 *    is pre-decoded at that offset to recover the target (direct
 *    branches) or the BTB is consulted (indirect).
 *
 *  - **BTB prefetch** (Section V.C): every block that misses in the RLU
 *    is pre-decoded and its branches installed, block-at-a-time, in a
 *    32-entry 2-way BTB prefetch buffer beside the unmodified BTB.
 *
 *  The proactive engine (Section V.B "Proactive Sequential and
 *  Discontinuity Prefetching") chains regions ahead of the fetch stream:
 *  SeqQueue and DisQueue hold triggering blocks with a chain depth,
 *  candidates flow through RLUQueue, the 8-entry RLU filters repeated
 *  lookups, chains terminate at depth 4, and sequential tails beyond a
 *  discontinuity use SN1L instead of SN4L.
 *
 *  Every knob is configurable so that ablations (plain N4L, SN4L-only,
 *  SN4L+Dis, table-size and tagging sweeps) reuse this one engine.
 */

#ifndef DCFB_PREFETCH_SN4L_DIS_BTB_H
#define DCFB_PREFETCH_SN4L_DIS_BTB_H

#include <cstdint>
#include <memory>

#include "common/queue.h"
#include "frontend/btb.h"
#include "isa/predecoder.h"
#include "obs/registry.h"
#include "prefetch/btb_prefetch_buffer.h"
#include "prefetch/dis_table.h"
#include "prefetch/prefetcher.h"
#include "prefetch/rlu.h"
#include "prefetch/seq_table.h"

namespace dcfb::rt {
class FaultInjector;
class InvariantRegistry;
} // namespace dcfb::rt

namespace dcfb::prefetch {

/** Configuration for the combined engine and its ablations. */
struct Sn4lDisBtbConfig
{
    bool selective = true;        //!< false = plain N4L behaviour
    bool enableDis = true;
    bool enableBtbPrefetch = true;
    bool proactive = true;        //!< chase chains via the queues
    unsigned seqDepth = 4;        //!< next-X for depth-0 triggers
    unsigned chainDepthLimit = 4; //!< proactive chain termination
    bool sn1lTails = true;        //!< SN1L for discontinuity tails
    std::size_t seqTableEntries = 16 * 1024; //!< 0 = unlimited
    DisTableConfig disTable;
    unsigned queueEntries = 16;   //!< SeqQueue/DisQueue/RLUQueue
    unsigned rluEntries = 8;
    unsigned btbPbEntries = 32;
    unsigned btbPbAssoc = 2;
    unsigned drainPerCycle = 2;   //!< RLUQueue pops per cycle (2 ports)
};

/**
 * The SN4L+Dis+BTB prefetcher.
 */
class Sn4lDisBtb final : public InstrPrefetcher
{
  public:
    /**
     * @param l1i_       cache to prefetch into
     * @param predecoder shared pre-decoder (Dis + BTB prefetch)
     * @param btb_       core BTB, consulted for indirect Dis targets
     *                   (may be nullptr)
     * @param config     engine configuration
     */
    Sn4lDisBtb(mem::L1iCache &l1i_, const isa::Predecoder &predecoder,
               frontend::Btb *btb_,
               const Sn4lDisBtbConfig &config = Sn4lDisBtbConfig{});

    std::string name() const override;
    void tick(Cycle now) override;
    void onFetchInstr(const FetchedInstr &instr, Cycle now) override;
    std::uint64_t storageBits() const override;
    BtbPrefetchBuffer *btbPrefetchBuffer() override
    {
        return cfg.enableBtbPrefetch ? &btbPb : nullptr;
    }

    // L1i listener hooks (SN4L metadata + Dis recording + triggers).
    void onDemandAccess(Addr block_addr, bool hit) override;
    void onDemandMiss(Addr block_addr, bool sequential) override;
    void onFill(Addr block_addr, bool was_prefetch,
                const mem::BranchFootprint *bf) override;
    void onEvict(Addr block_addr, bool was_prefetch, bool demanded) override;
    void onPrefetchUsed(Addr block_addr) override;

    const SeqTable &seqTable() const { return seq; }
    SeqTable &seqTable() { return seq; }
    const DisTable &disTable() const { return dis; }
    DisTable &disTable() { return dis; }
    const Rlu &rlu() const { return rluFilter; }
    Rlu &rlu() { return rluFilter; }
    const obs::StatRegistry &stats() const { return statReg; }
    obs::StatRegistry &stats() { return statReg; }

    /** Attach a fault injector: backpressure faults reject pushes into
     *  the engine's SeqQueue/DisQueue/RLUQueue, starving the proactive
     *  chains.  nullptr restores unperturbed behaviour. */
    void setFaultInjector(rt::FaultInjector *f) { injector = f; }

    /** Register queue-occupancy and chain-depth invariants. */
    void registerInvariants(rt::InvariantRegistry &reg);

    /** Current queue occupancies (failure snapshots/tests). */
    struct QueueDepths
    {
        std::size_t seq;
        std::size_t dis;
        std::size_t rlu;
    };

    QueueDepths
    queueDepths() const
    {
        return {seqQueue.size(), disQueue.size(), rluQueue.size()};
    }

  private:
    struct Trigger
    {
        Addr blockAddr;
        unsigned depth;
    };

    /** Process one SeqQueue trigger: emit next-line candidates. */
    void processSeq(const Trigger &t);

    /** Process one DisQueue trigger: DisTable replay + BTB prefill. */
    void processDis(const Trigger &t, Cycle now);

    /** Process RLUQueue candidates (the cache-lookup stage). */
    void processRluQueue(Cycle now);

    /** Push a candidate into RLUQueue. */
    void emitCandidate(Addr block_addr, unsigned depth);

    /** Start a new chain trigger (Seq + Dis queues). */
    void pushTrigger(Addr block_addr, unsigned depth);

    /** Pre-decode a block and prefill the BTB prefetch buffer. */
    void prefillBtb(Addr block_addr);

    mem::L1iCache &l1i;
    const isa::Predecoder &pd;
    frontend::Btb *btb;
    Sn4lDisBtbConfig cfg;

    SeqTable seq;
    DisTable dis;
    Rlu rluFilter;
    BtbPrefetchBuffer btbPb;

    // Ring-backed queues (see common/queue.h): pushed/popped every
    // cycle, so no deque node churn on the hot path.
    BoundedQueue<Trigger> seqQueue;
    BoundedQueue<Trigger> disQueue;
    BoundedQueue<Trigger> rluQueue;

    /** Dis recording registers: the last two demanded instructions. */
    FetchedInstr lastInstr[2];
    bool haveInstr[2] = {false, false};

    rt::FaultInjector *injector = nullptr;

    obs::StatRegistry statReg;

    // Typed handles for the per-trigger hot path.
    obs::Counter cLocalStatusHits, cLocalStatusFills, cSeqTableReads,
        cSn4lFiltered, cSn4lCandidates, cRluFiltered, cIssued;
    obs::Histogram hChainDepth, hRluQueueOcc;
    // Lazily bound: a key is reported only once it fires (see
    // obs::LazyCounter).
    obs::LazyCounter cSeqOverflow, cDisOverflow, cRluOverflow,
        cMissStatusOff, cDisRecorded, cDisNotBranch, cDisNoTarget,
        cDisCandidates, cPrefillNoFootprint, cPrefillBlocks;
};

} // namespace dcfb::prefetch

#endif // DCFB_PREFETCH_SN4L_DIS_BTB_H

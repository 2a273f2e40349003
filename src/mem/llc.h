/**
 * @file
 * Shared last-level cache with optional DV-LLC branch-footprint
 * virtualization (Sections IV and V.D).
 *
 * The LLC is 32 MB, 16-way, 16 banks, 18-cycle access (Table III).  Banks
 * map to mesh tiles by block number, so every access pays a round trip
 * through the MeshModel; misses continue to the MemoryModel.
 *
 * DV-LLC: each cache block carries an isInstruction bit.  While a set
 * holds at least one instruction block, its last way flips from
 * block-holder to BF-holder and stores up to bfSlotsPerSet branch
 * footprints (BFs), each a list of up to branchesPerBf byte offsets of
 * branch instructions within one resident instruction block.  BFs are
 * constructed from the retired instruction stream (recordBranchOffset)
 * and travel with instruction blocks to the L1i, where they guide the
 * variable-length pre-decoder.
 */

#ifndef DCFB_MEM_LLC_H
#define DCFB_MEM_LLC_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "mem/cache.h"
#include "mem/memory.h"
#include "noc/mesh.h"
#include "obs/registry.h"

namespace dcfb::mem {

/** LLC configuration. */
struct LlcConfig
{
    std::size_t capacityBytes = 32ull << 20;
    unsigned assoc = 16;
    unsigned banks = 16;
    Cycle accessLatency = 18;
    unsigned replyFlits = 5;      //!< 64 B data + head flit
    unsigned requestFlits = 1;

    bool dvllc = false;           //!< enable BF virtualization
    unsigned bfSlotsPerSet = 8;   //!< BF-holder capacity (Fig. 9 sweep)
    unsigned branchesPerBf = 4;   //!< offsets per BF (Fig. 8 sweep)

    bool operator==(const LlcConfig &) const = default;
};

/** A branch footprint: byte offsets of branches within one block. */
struct BranchFootprint
{
    std::vector<std::uint8_t> offsets;
};

/**
 * Banked LLC + DV-LLC footprint store.
 */
class Llc
{
  public:
    /** Result of a round-trip access from the core tile. */
    struct AccessResult
    {
        Cycle ready = 0;    //!< cycle the block arrives at the requester
        bool hit = false;   //!< LLC hit (vs. DRAM fill)
        bool bfValid = false;
        BranchFootprint bf; //!< valid when bfValid
    };

    Llc(const LlcConfig &config, noc::MeshModel &mesh_, MemoryModel &mem_,
        unsigned core_tile);

    /**
     * Fetch the block at @p addr, starting at @p now, on behalf of the
     * core.  @p is_instruction tags the block; @p want_bf additionally
     * returns the block's branch footprint when DV-LLC holds one.
     */
    AccessResult access(Addr addr, Cycle now, bool is_instruction,
                        bool want_bf = false);

    /**
     * Record that the retired stream saw a branch starting at byte
     * @p byte_offset of the block at @p block_addr (BF construction).
     */
    void recordBranchOffset(Addr block_addr, std::uint8_t byte_offset);

    /**
     * Functional warmup touch: insert/refresh the block without timing,
     * NoC traffic or statistics.  Mirrors SimFlex checkpoints, which
     * include long-term cache contents (Section VI.C).
     */
    void warmTouch(Addr addr, bool is_instruction);

    /** LLC set that @p addr maps to. */
    unsigned setIndex(Addr addr) const { return array.setIndex(addr); }

    /** Number of sets. */
    unsigned sets() const { return array.sets(); }

    /** True when the block currently resides in the LLC (tests). */
    bool contains(Addr addr) const { return array.contains(addr); }

    /** The BF currently stored for @p block_addr, if any (always
     *  nullptr without DV-LLC). */
    const BranchFootprint *findFootprint(Addr block_addr) const;

    /** Number of sets whose LRU way is currently a BF-holder (0
     *  without DV-LLC). */
    std::size_t bfHolderSets() const;

    const obs::StatRegistry &stats() const { return statReg; }
    obs::StatRegistry &stats() { return statReg; }
    const LlcConfig &config() const { return cfg; }

  private:
    struct LineMeta
    {
        bool isInstruction = false;
    };

    /** Per-set DV-LLC state: BF slots keyed by resident block address. */
    struct BfSet
    {
        bool holder = false; //!< LRU way is in BF-holder mode
        struct Slot
        {
            Addr blockAddr = kInvalidAddr;
            BranchFootprint bf;
            std::uint64_t lastUse = 0;
        };
        std::vector<Slot> slots;
    };

  public:
    /** What a functional warmup left behind (sim::WarmCache): the
     *  written lines, the non-default BF sets, and the counters the
     *  DV-LLC warm path interned. */
    struct WarmState
    {
        SetAssocCache<LineMeta>::WarmState lines;
        std::vector<std::pair<std::uint32_t, BfSet>> bfSets;
        std::uint64_t bfTick = 0;
        std::map<std::string, std::uint64_t> counters;
    };

    WarmState saveWarm() const;

    /** Restore @p s into a freshly constructed LLC of the same config. */
    void restoreWarm(const WarmState &s);

  private:
    /** Effective ways of a set given its BF-holder state. */
    unsigned effectiveWays(unsigned set_index) const;

    /** Re-evaluate BF-holder mode after an insert/evict in @p set_index. */
    void updateHolderMode(unsigned set_index);

    /** Find or allocate the BF slot for @p block_addr in its set. */
    BfSet::Slot *bfSlot(Addr block_addr, bool allocate);

    LlcConfig cfg;
    noc::MeshModel &mesh;
    MemoryModel &memory;
    unsigned coreTile;
    SetAssocCache<LineMeta> array;
    std::vector<BfSet> bfSets; //!< one per set under DV-LLC, else empty
    std::uint64_t bfTick = 0;
    obs::StatRegistry statReg;
    obs::LazyCounter cAccesses, cInstrAccesses, cDataAccesses, cHits,
        cInstrHits, cDataHits, cMisses, cEvictions, cLatencySum;
    // BF fetch/record and DV-LLC holder accounting.
    obs::LazyCounter cBfFetchAttempts, cBfFetchHits, cBfFetchUncovered,
        cBfRecordAttempts, cBfRecordNoHolder, cBfBranchesUncovered,
        cBfBranchesRecorded, cBlocksDisplaced, cHolderActivations,
        cHolderDeactivations, cBfReplacements;
};

} // namespace dcfb::mem

#endif // DCFB_MEM_LLC_H

/**
 * @file
 * Conventional program-counter-indexed branch target buffer.
 *
 * This is the 2 K-entry BTB of Table III.  The paper's proposal keeps it
 * unmodified ("BTB modification: No" in Table II) and adds a prefetch
 * buffer next to it; Confluence's upper-bound configuration simply uses
 * a 16 K-entry instance of this same structure.
 */

#ifndef DCFB_FRONTEND_BTB_H
#define DCFB_FRONTEND_BTB_H

#include <cstdint>

#include "common/types.h"
#include "isa/encoding.h"
#include "mem/cache.h"
#include "obs/registry.h"

namespace dcfb::frontend {

/** One BTB entry's payload. */
struct BtbEntry
{
    Addr target = kInvalidAddr;
    isa::InstrKind kind = isa::InstrKind::CondBranch;
};

/**
 * Set-associative BTB keyed by branch PC.
 */
class Btb
{
  public:
    /**
     * @param entries total entry count (power of two)
     * @param assoc   ways
     * @param arena   optional cell arena backing the entry array
     */
    explicit Btb(unsigned entries = 2048, unsigned assoc = 4,
                 exec::Arena *arena = nullptr)
        : array(entries / assoc, assoc, arena),
          cLookups(statReg.lazyCounter("btb_lookups")),
          cHits(statReg.lazyCounter("btb_hits")),
          cMisses(statReg.lazyCounter("btb_misses"))
    {}

    /** Arena bytes an (entries, assoc) geometry wants. */
    static std::size_t
    arenaBytes(unsigned entries, unsigned assoc)
    {
        return mem::SetAssocCache<BtbEntry>::storageBytes(entries / assoc,
                                                          assoc);
    }

    /** Look up the branch at @p pc; nullptr on miss.  Counts stats. */
    const BtbEntry *
    lookup(Addr pc)
    {
        cLookups.add();
        if (auto *line = array.lookup(key(pc))) {
            cHits.add();
            return &line->meta;
        }
        cMisses.add();
        return nullptr;
    }

    /** Presence probe without statistics. */
    bool contains(Addr pc) const { return array.lookup(key(pc)) != nullptr; }

    /** Install or update the entry for the branch at @p pc. */
    void
    update(Addr pc, Addr target, isa::InstrKind kind)
    {
        BtbEntry entry{target, kind};
        array.touchOrInsert(key(pc), entry).line->meta = entry;
    }

    const obs::StatRegistry &stats() const { return statReg; }
    obs::StatRegistry &stats() { return statReg; }
    std::size_t entryCount() const
    {
        return std::size_t{array.sets()} * array.ways();
    }

  private:
    /**
     * BTB sets are indexed by instruction address; reuse the block-keyed
     * cache by shifting the PC so that each instruction address maps to
     * a distinct "block".
     */
    static Addr key(Addr pc) { return pc << kBlockShift; }

    obs::StatRegistry statReg;
    mem::SetAssocCache<BtbEntry> array;
    obs::LazyCounter cLookups;
    obs::LazyCounter cHits;
    obs::LazyCounter cMisses;
};

} // namespace dcfb::frontend

#endif // DCFB_FRONTEND_BTB_H

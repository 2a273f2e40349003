/**
 * @file
 * Basic-block-oriented BTB (Boomerang).
 *
 * Boomerang's frontend walks basic blocks: each entry is keyed by the
 * basic block's start address and stores the distance to its terminating
 * branch, the branch kind, and the taken target.  A hit lets the BTB-
 * directed engine jump to the next basic block; a miss stalls it until
 * the block is fetched and pre-decoded (Section II.B).
 */

#ifndef DCFB_FRONTEND_BB_BTB_H
#define DCFB_FRONTEND_BB_BTB_H

#include <cstdint>

#include "common/types.h"
#include "isa/encoding.h"
#include "mem/cache.h"
#include "obs/registry.h"

namespace dcfb::frontend {

/** One basic-block BTB entry. */
struct BbBtbEntry
{
    std::uint16_t sizeBytes = 0; //!< start to end of terminating branch
    std::uint16_t branchOffset = 0; //!< start of the terminator, bytes
    isa::InstrKind kind = isa::InstrKind::CondBranch;
    Addr target = kInvalidAddr;
};

/**
 * Set-associative basic-block BTB keyed by block start PC.
 */
class BbBtb
{
  public:
    explicit BbBtb(unsigned entries = 2048, unsigned assoc = 4)
        : array(entries / assoc, assoc),
          cLookups(statReg.lazyCounter("bbbtb_lookups")),
          cHits(statReg.lazyCounter("bbbtb_hits")),
          cMisses(statReg.lazyCounter("bbbtb_misses"))
    {}

    const BbBtbEntry *
    lookup(Addr bb_start)
    {
        cLookups.add();
        if (const BbBtbEntry *entry = array.lookup(key(bb_start))) {
            cHits.add();
            return entry;
        }
        cMisses.add();
        return nullptr;
    }

    bool
    contains(Addr bb_start) const
    {
        return array.contains(key(bb_start));
    }

    void
    update(Addr bb_start, const BbBtbEntry &entry)
    {
        *array.touchOrAllocate(key(bb_start)).meta = entry;
    }

    const obs::StatRegistry &stats() const { return statReg; }
    obs::StatRegistry &stats() { return statReg; }

  private:
    static Addr key(Addr pc) { return pc << kBlockShift; }

    mem::SetAssocCache<BbBtbEntry> array;
    obs::StatRegistry statReg;
    obs::LazyCounter cLookups, cHits, cMisses;
};

} // namespace dcfb::frontend

#endif // DCFB_FRONTEND_BB_BTB_H

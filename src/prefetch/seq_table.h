/**
 * @file
 * SeqTable: SN4L's usefulness metadata (Section V.A).
 *
 * A direct-mapped, tagless table of single-bit prefetch-status entries,
 * one per instruction block (16 K entries = 2 KB in the paper's
 * configuration).  All entries initialize to 1 ("prefetch the first
 * time").  Because the table is tagless, distinct blocks alias onto the
 * same entry; Section VII.C reports a 28 % conflict ratio that still
 * yields 92 % correct predictions, which is why no tags are needed.
 */

#ifndef DCFB_PREFETCH_SEQ_TABLE_H
#define DCFB_PREFETCH_SEQ_TABLE_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "exec/arena.h"
#include "obs/registry.h"

namespace dcfb::prefetch {

/**
 * Direct-mapped tagless bit table keyed by block number.
 */
class SeqTable
{
  public:
    /**
     * @param entries_ table size (power of two); 0 = unlimited (one
     *                 dedicated entry per block, the Fig. 11 reference)
     */
    explicit SeqTable(std::size_t entries_ = 16 * 1024,
                      exec::Arena *arena = nullptr)
        : entries(entries_),
          bits(entries_ ? entries_ : 0, true,
               exec::ArenaAlloc<bool>(arena)),
          owners(entries_ ? entries_ : 0, kInvalidAddr,
                 exec::ArenaAlloc<Addr>(arena)),
          cConflicts(statReg.lazyCounter("seqtable_conflicts")),
          cWrites(statReg.lazyCounter("seqtable_writes"))
    {}

    /** Arena bytes an @p entries_ table wants (bit table + owners). */
    static std::size_t
    arenaBytes(std::size_t entries_)
    {
        return entries_ / 8 + entries_ * sizeof(Addr) + 64;
    }

    /** Read the prefetch-status bit for @p block_addr. */
    bool
    get(Addr block_addr) const
    {
        if (unlimited()) {
            auto it = dedicated.find(blockNumber(block_addr));
            return it == dedicated.end() ? true : it->second;
        }
        return bits[index(block_addr)];
    }

    /** Write the prefetch-status bit for @p block_addr. */
    void
    set(Addr block_addr, bool useful)
    {
        if (unlimited()) {
            dedicated[blockNumber(block_addr)] = useful;
            return;
        }
        std::size_t i = index(block_addr);
        // Conflict instrumentation: remember the last owner per entry.
        // Flat pre-sized array (kInvalidAddr = never written): the old
        // per-write unordered_map probe was a measurable hot path.
        Addr owner = blockNumber(block_addr);
        if (owners[i] != owner && owners[i] != kInvalidAddr)
            cConflicts.add();
        owners[i] = owner;
        cWrites.add();
        bits[i] = useful;
    }

    /**
     * Status of the four blocks following @p block_addr, packed with the
     * nearest block in bit 0 (this is what SN4L copies into the line's
     * local prefetch status on fill).
     */
    std::uint8_t
    statusOfNextFour(Addr block_addr) const
    {
        std::uint8_t packed = 0;
        for (unsigned i = 0; i < 4; ++i) {
            if (get(block_addr + Addr{i + 1} * kBlockBytes))
                packed |= 1u << i;
        }
        return packed;
    }

    bool unlimited() const { return entries == 0; }
    std::size_t size() const { return entries; }

    /** Storage cost: one bit per entry (tagless). */
    std::uint64_t storageBits() const { return entries; }

    const obs::StatRegistry &stats() const { return statReg; }
    obs::StatRegistry &stats() { return statReg; }

  private:
    std::size_t
    index(Addr block_addr) const
    {
        return static_cast<std::size_t>(blockNumber(block_addr)) &
            (entries - 1);
    }

    std::size_t entries;
    std::vector<bool, exec::ArenaAlloc<bool>> bits;
    std::unordered_map<Addr, bool> dedicated; //!< unlimited mode
    obs::StatRegistry statReg;
    exec::ArenaVector<Addr> owners; //!< last writer per entry (stats only)
    obs::LazyCounter cConflicts;
    obs::LazyCounter cWrites;
};

} // namespace dcfb::prefetch

#endif // DCFB_PREFETCH_SEQ_TABLE_H

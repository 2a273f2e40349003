/**
 * @file
 * Confluence-like BTB prefetch buffer (Section V.C).
 *
 * Pre-decoded branches are stored next to the (unmodified) BTB in a
 * 2-way set-associative, 32-entry buffer.  Entries are organized per
 * cache block, so all branches of a block are installed in a single
 * buffer access (the Confluence AirBTB-style organization).  On a BTB
 * miss the fetch engine probes the buffer; a hit moves the entry into
 * the BTB, avoiding the miss.  Shotgun uses the same structure (32
 * entries, fully-associative) for its C-BTB prefills.
 */

#ifndef DCFB_PREFETCH_BTB_PREFETCH_BUFFER_H
#define DCFB_PREFETCH_BTB_PREFETCH_BUFFER_H

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "isa/encoding.h"
#include "isa/predecoder.h"
#include "mem/cache.h"

namespace dcfb::prefetch {

/** One buffered pre-decoded branch. */
struct BufferedBranch
{
    std::uint8_t byteOffset = 0;
    isa::InstrKind kind = isa::InstrKind::CondBranch;
    Addr target = kInvalidAddr;
    bool hasTarget = false;
};

/** All branches of one pre-decoded cache block.  Inline fixed storage
 *  (a block has at most one branch per byte offset) so installing or
 *  replacing a block never heap-allocates; only the first @c count
 *  entries are meaningful, so a refill rewrites the block in place. */
struct BufferedBlock
{
    static constexpr unsigned kMaxBranches = kBlockBytes;

    std::array<BufferedBranch, kMaxBranches> branches{};
    std::uint8_t count = 0;

    const BufferedBranch *begin() const { return branches.data(); }
    const BufferedBranch *end() const { return branches.data() + count; }
};

/**
 * Block-grained BTB prefetch buffer.
 */
class BtbPrefetchBuffer
{
  public:
    /**
     * @param entries_ block entries (paper: 32)
     * @param assoc_   associativity (paper: 2-way; Shotgun: fully assoc.)
     */
    explicit BtbPrefetchBuffer(unsigned entries_ = 32, unsigned assoc_ = 2)
        : array(entries_ / assoc_, assoc_)
    {}

    /** Install the pre-decoded branches of @p block_addr (one access). */
    void
    insertBlock(Addr block_addr,
                std::span<const isa::PredecodedBranch> branches)
    {
        BufferedBlock &blk = *array.touchOrAllocate(block_addr).meta;
        blk.count = 0;
        for (const auto &b : branches) {
            if (blk.count >= BufferedBlock::kMaxBranches)
                break;
            blk.branches[blk.count++] = {
                static_cast<std::uint8_t>(b.byteOffset), b.kind, b.target,
                b.hasTarget};
        }
    }

    /**
     * Probe for the branch at @p pc (called on a BTB miss).  On a hit the
     * branch record is returned; the caller moves it into the BTB.
     */
    const BufferedBranch *
    findBranch(Addr pc)
    {
        const BufferedBlock *blk = array.lookup(blockAlign(pc));
        if (!blk)
            return nullptr;
        unsigned off = blockOffset(pc);
        for (const auto &b : *blk) {
            if (b.byteOffset == off)
                return &b;
        }
        return nullptr;
    }

    bool
    containsBlock(Addr block_addr) const
    {
        return array.contains(block_addr);
    }

    /** Storage: per entry, up to 4 branches x (6-bit offset + 32-bit
     *  target + kind) plus the block tag: ~1 KB total at 32 entries. */
    std::uint64_t
    storageBits() const
    {
        return std::uint64_t{array.sets()} * array.ways() * (4 * 40 + 52);
    }

  private:
    mem::SetAssocCache<BufferedBlock> array;
};

} // namespace dcfb::prefetch

#endif // DCFB_PREFETCH_BTB_PREFETCH_BUFFER_H

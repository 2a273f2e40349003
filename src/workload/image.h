/**
 * @file
 * Program image: the raw bytes of the synthetic program.
 *
 * The image is the ground truth that pre-decoders read.  The simulator
 * never attaches instruction semantics to cache blocks directly; every
 * component that claims to "pre-decode a block" (Dis, the BTB prefetcher,
 * Boomerang, Shotgun) reads these bytes and runs a real decoder over
 * them, so metadata-miss behaviour is faithful.
 */

#ifndef DCFB_WORKLOAD_IMAGE_H
#define DCFB_WORKLOAD_IMAGE_H

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace dcfb::workload {

/**
 * Sparse byte-addressable memory image keyed by cache block.
 *
 * Blocks are stored as contiguous runs, each one vector of blocks
 * indexed directly by block number minus the run's first.  A write
 * that touches a run's neighbour extends it, and runs that meet are
 * merged, so a program laid out without gaps is one run.  A block that
 * was never written lies in no run and reads as unmapped.
 */
class ProgramImage
{
  public:
    using Block = std::array<std::uint8_t, kBlockBytes>;

    /** Copy @p n bytes to @p addr, allocating blocks as needed. */
    void write(Addr addr, const std::uint8_t *data, std::size_t n);

    /**
     * Read up to @p n bytes from @p addr into @p out, stitching across
     * blocks.  Stops early at the first unmapped block.
     * @return the number of bytes actually read.
     */
    unsigned read(Addr addr, std::uint8_t *out, unsigned n) const;

    /** Raw bytes of the block containing @p addr, or nullptr. */
    const Block *block(Addr addr) const;

    /** True when the block containing @p addr is mapped. */
    bool contains(Addr addr) const { return block(addr) != nullptr; }

    /** Number of mapped 64-byte blocks. */
    std::size_t numBlocks() const;

    /** Total mapped code bytes (block granularity). */
    std::size_t sizeBytes() const { return numBlocks() * kBlockBytes; }

    /** Release the spare capacity that growing the runs left behind. */
    void shrinkToFit();

  private:
    struct Run
    {
        Addr first = 0;            //!< block number of blocks[0]
        std::vector<Block> blocks; //!< blocks first, first + 1, ...
    };

    /** Index of the first run that starts above block number @p bn. */
    std::size_t runAbove(Addr bn) const;

    /** The block numbered @p bn, mapped (zero-filled) if it was not. */
    Block &slot(Addr bn);

    std::vector<Run> runs; //!< ascending, disjoint and non-adjacent
};

} // namespace dcfb::workload

#endif // DCFB_WORKLOAD_IMAGE_H

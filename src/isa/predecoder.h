/**
 * @file
 * Instruction-block pre-decoder.
 *
 * The pre-decoder is the shared hardware unit that Confluence-style BTB
 * prefetching, the Dis prefetcher and Shotgun all rely on
 * (Section V.C): given the raw bytes of an instruction block it extracts
 * the branch instructions and, for direct branches, their targets.
 *
 * Fixed-length mode decodes all 16 slots in parallel (one pass).  In
 * variable-length mode instruction boundaries are unknown, so the
 * pre-decoder must be *guided*: either by a single byte offset (DisTable)
 * or by a branch footprint of up to four byte offsets (Section IV,
 * Fig. 8) fetched from the DV-LLC.
 */

#ifndef DCFB_ISA_PREDECODER_H
#define DCFB_ISA_PREDECODER_H

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "isa/encoding.h"
#include "workload/image.h"

namespace dcfb::rt {
class FaultInjector;
} // namespace dcfb::rt

namespace dcfb::isa {

/** One branch discovered by pre-decoding a block. */
struct PredecodedBranch
{
    unsigned byteOffset = 0; //!< first byte of the branch within the block
    InstrKind kind = InstrKind::CondBranch;
    bool hasTarget = false;
    Addr target = kInvalidAddr;
    Addr pc = kInvalidAddr;  //!< full PC of the branch instruction
};

/**
 * Block pre-decoder bound to a program image.
 */
class Predecoder
{
  public:
    /**
     * @param image_ program bytes to decode
     * @param variable_length true for the VL-ISA configuration
     */
    Predecoder(const workload::ProgramImage &image_, bool variable_length)
        : image(image_), variableLength(variable_length)
    {}

    /**
     * Extract every branch in the block at @p block_addr.
     *
     * In fixed-length mode this decodes all slots.  In variable-length
     * mode full-block pre-decoding is only possible with a footprint, so
     * this returns an empty vector (mirroring the hardware limitation the
     * paper works around); use predecodeWithFootprint() instead.
     */
    std::vector<PredecodedBranch> predecodeBlock(Addr block_addr) const;

    /**
     * Zero-copy variant of predecodeBlock() for per-cycle callers (BTB
     * prefill): the returned span aliases the internal block cache (or,
     * under fault injection, a perturbed scratch copy) and is valid only
     * until the next Predecoder call.  Decoded contents and injector RNG
     * draw order are identical to predecodeBlock().
     */
    std::span<const PredecodedBranch> predecodeBlockSpan(Addr block_addr) const;

    /**
     * Single-branch variant of decodeAt() for DisTable replay: writes the
     * branch record to @p out and returns true only when the bytes at
     * @p byte_offset decode to a branch.  Identical outcomes (and
     * injector RNG draw order) to decodeAt().
     */
    bool decodeBranchAt(Addr block_addr, unsigned byte_offset,
                        PredecodedBranch &out) const;

    /**
     * Variable-length mode: decode exactly the instructions whose starting
     * byte offsets are listed in @p footprint (a branch footprint from the
     * DV-LLC).  Offsets that do not decode to branches are skipped.
     */
    std::vector<PredecodedBranch>
    predecodeWithFootprint(Addr block_addr,
                           const std::vector<std::uint8_t> &footprint) const;

    /**
     * Decode a single instruction at @p byte_offset within the block
     * (DisTable replay).  Returns a branch record only when the bytes at
     * that offset decode to a branch instruction; stale DisTable entries
     * thus yield no prefetch, exactly as in Section V.B "Replaying".
     */
    std::vector<PredecodedBranch> decodeAt(Addr block_addr,
                                           unsigned byte_offset) const;

    bool isVariableLength() const { return variableLength; }

    /** Attach a fault injector: corrupt faults perturb the targets of
     *  pre-decoded direct branches (wrong-block redirects), modeling a
     *  lying pre-decode unit.  nullptr restores exact decoding. */
    void setFaultInjector(rt::FaultInjector *f) { injector = f; }

  private:
    /** Apply corrupt faults to freshly decoded branches. */
    void perturb(std::vector<PredecodedBranch> &branches) const;

    /**
     * One cached *clean* fixed-length block decode.  The program image
     * is immutable, so a block's decode never changes; re-decoding all
     * 16 slots on every predecodeBlock() call was a measurable hot
     * path.  Fault perturbation is applied to a per-call copy, never to
     * the cached record, so the injector's RNG draw order is identical
     * with and without the cache.
     */
    struct CachedBlock
    {
        Addr tag = kInvalidAddr; //!< block number; kInvalidAddr = empty
        std::uint8_t count = 0;
        std::array<PredecodedBranch, kInstrPerBlock> branches{};
    };

    /** Direct-mapped cache size (power of two). */
    static constexpr std::size_t kCacheEntries = 256;

    /** The cached clean decode of @p block_addr, filling on miss. */
    const CachedBlock &cachedBlock(Addr block_addr) const;

    const workload::ProgramImage &image;
    bool variableLength;
    rt::FaultInjector *injector = nullptr;
    mutable std::vector<CachedBlock> cache; //!< sized on first use
    /** Perturbed copy backing predecodeBlockSpan() under injection. */
    mutable std::array<PredecodedBranch, kInstrPerBlock> scratch{};
};

} // namespace dcfb::isa

#endif // DCFB_ISA_PREDECODER_H

/**
 * @file
 * Synthetic fixed-length ISA encoding.
 *
 * The paper evaluates on UltraSPARC III (fixed 4-byte instructions).  We
 * define a synthetic 4-byte RISC encoding that a pre-decoder can actually
 * decode from raw block bytes, because pre-decoding is load-bearing for
 * the Dis prefetcher, the BTB prefetcher and Shotgun: targets
 * of direct branches are *not* stored in prefetcher metadata, they are
 * recovered from the instruction bytes.
 *
 * Word layout (little-endian 32-bit):
 *   bits [3:0]   instruction kind (InstrKind)
 *   bits [31:8]  signed 24-bit target offset in instruction words,
 *                relative to this instruction's PC (direct branches only)
 */

#ifndef DCFB_ISA_ENCODING_H
#define DCFB_ISA_ENCODING_H

#include <cstdint>

#include "common/types.h"

namespace dcfb::isa {

/** Instruction classes of the synthetic ISA. */
enum class InstrKind : std::uint8_t {
    Alu = 0,          //!< register-to-register arithmetic
    Load = 1,         //!< memory read
    Store = 2,        //!< memory write
    CondBranch = 3,   //!< conditional direct branch
    Jump = 4,         //!< unconditional direct branch
    Call = 5,         //!< direct call (pushes return address)
    Return = 6,       //!< return (pops return address)
    IndirectCall = 7, //!< call through a register (target not encoded)
};

/** True for every control-flow-transfer kind. */
constexpr bool
isBranch(InstrKind kind)
{
    return kind >= InstrKind::CondBranch;
}

/** True when the target is recoverable from the instruction bytes. */
constexpr bool
hasEncodedTarget(InstrKind kind)
{
    return kind == InstrKind::CondBranch || kind == InstrKind::Jump ||
        kind == InstrKind::Call;
}

/** True for branches that are always taken when executed. */
constexpr bool
isUnconditional(InstrKind kind)
{
    return isBranch(kind) && kind != InstrKind::CondBranch;
}

/** A decoded fixed-length instruction. */
struct DecodedInstr
{
    InstrKind kind = InstrKind::Alu;
    bool hasTarget = false; //!< target field below is valid
    Addr target = kInvalidAddr;
};

/**
 * Encode @p instr located at @p pc into a 4-byte word.
 *
 * @pre For direct branches the target must be 4-byte aligned and within
 *      +/- 2^23 instruction words of @p pc.
 */
std::uint32_t encodeInstr(Addr pc, const DecodedInstr &instr);

/** Decode the 4-byte word @p word located at @p pc. */
DecodedInstr decodeInstr(Addr pc, std::uint32_t word);

/** Read a 32-bit little-endian word from @p bytes. */
std::uint32_t readWord(const std::uint8_t *bytes);

/** Write a 32-bit little-endian word to @p bytes. */
void writeWord(std::uint8_t *bytes, std::uint32_t word);

} // namespace dcfb::isa

#endif // DCFB_ISA_ENCODING_H

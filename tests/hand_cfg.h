/**
 * @file
 * Hand-built programs for walker tests: append functions and blocks to
 * a flat workload::Program the way buildProgram lays them out.
 */

#ifndef DCFB_TESTS_HAND_CFG_H
#define DCFB_TESTS_HAND_CFG_H

#include "workload/cfg.h"

namespace dcfb::workload::hand {

/** Start a new (empty) function at the end of @p prog. */
inline void
addFunction(Program &prog, std::uint32_t level = 0)
{
    Function fn;
    fn.level = level;
    fn.firstBlock = static_cast<std::uint32_t>(prog.blocks.size());
    prog.functions.push_back(fn);
}

/**
 * Append a block of @p instrs fixed-length instructions to the last
 * function; the last instruction carries @p term's kind.  @p target is
 * a Program::blocks index, @p callee a Program::functions index.
 */
inline void
addBlock(Program &prog, Addr start, std::uint32_t instrs, TermKind term,
         std::uint32_t target = 0, std::uint32_t callee = 0,
         double taken_prob = 0.5)
{
    Function &fn = prog.functions.back();
    if (fn.numBlocks++ == 0)
        fn.entry = start;
    BasicBlock bb;
    bb.start = start;
    bb.term = term;
    bb.targetBlock = target;
    bb.callee = callee;
    bb.takenProb = taken_prob;
    bb.firstInstr = static_cast<std::uint32_t>(prog.instrs.size());
    bb.numInstrs = instrs;
    bb.termOffset = (instrs - 1) * kInstrBytes;
    prog.instrs.resize(prog.instrs.size() + instrs,
                       {kInstrBytes, isa::InstrKind::Alu});
    switch (term) {
      case TermKind::Cond:
        prog.instrs.back().kind = isa::InstrKind::CondBranch;
        break;
      case TermKind::Jump:
        prog.instrs.back().kind = isa::InstrKind::Jump;
        break;
      case TermKind::Call:
        prog.instrs.back().kind = isa::InstrKind::Call;
        break;
      case TermKind::IndirectCall:
        prog.instrs.back().kind = isa::InstrKind::IndirectCall;
        break;
      case TermKind::Return:
        prog.instrs.back().kind = isa::InstrKind::Return;
        break;
      case TermKind::FallThrough:
        break;
    }
    prog.blocks.push_back(bb);
}

} // namespace dcfb::workload::hand

#endif // DCFB_TESTS_HAND_CFG_H

/**
 * @file
 * Trace walker: the retired-instruction stream of a synthetic program.
 *
 * Plays the role of the Flexus functional simulator in the paper's setup:
 * it produces the committed (correct-path) instruction stream that drives
 * the timing model.  Wrong-path instructions are *not* produced here —
 * the fetch unit reconstructs them from the program image when a BTB miss
 * or misprediction sends it down the wrong path.
 */

#ifndef DCFB_WORKLOAD_TRACE_H
#define DCFB_WORKLOAD_TRACE_H

#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "isa/encoding.h"
#include "workload/cfg.h"

namespace dcfb::workload {

/** One retired instruction. */
struct TraceEntry
{
    Addr pc = 0;
    std::uint8_t len = 0;
    isa::InstrKind kind = isa::InstrKind::Alu;
    bool taken = false;     //!< branch outcome (unconditional => true)
    Addr target = kInvalidAddr; //!< destination when taken
    Addr nextPc = 0;        //!< PC of the next retired instruction
    Addr dataAddr = kInvalidAddr; //!< loads/stores only

    bool isBranch() const { return isa::isBranch(kind); }
};

/**
 * Deterministic walker over a Program's control-flow graph.
 */
class TraceWalker
{
  public:
    /**
     * @param program_ the built program (must outlive the walker)
     * @param seed     runtime-randomness seed (branch outcomes, dispatch)
     */
    TraceWalker(const Program &program_, std::uint64_t seed);

    /** Produce the next retired instruction. The stream is endless. */
    TraceEntry
    next()
    {
        // Most of the stream is a non-terminator that neither loads nor
        // stores: it only advances the instruction index.  Everything
        // else (terminators, data addresses) takes the out-of-line path.
        Frame &f = stack.back();
        if (f.instr + 1 < block->numInstrs()) {
            isa::InstrKind kind = block->kinds[f.instr];
            if (kind != isa::InstrKind::Load &&
                kind != isa::InstrKind::Store) {
                TraceEntry e;
                e.pc = block->pcs[f.instr];
                e.len = block->lens[f.instr];
                e.kind = kind;
                e.nextPc = e.pc + e.len;
                ++f.instr;
                ++count;
                return e;
            }
        }
        return nextSlow();
    }

    /** Retired-instruction count so far. */
    std::uint64_t retired() const { return count; }

  private:
    struct Frame
    {
        std::uint32_t fn = 0;
        std::uint32_t blk = 0;
        std::uint32_t instr = 0;
        std::uint32_t retBlk = 0; //!< caller block to resume after return
        /** Remaining trip counts of this invocation's loops (keyed by
         *  back-edge branch PC).  Loops run a bounded number of trips
         *  and exit - unbounded geometric retries would trap the walk
         *  in tiny regions for arbitrarily long stretches. */
        std::map<Addr, std::uint32_t> loopTrips;
    };

  public:
    /** The walk's dynamic state, free of any reference to the program,
     *  so a checkpoint taken on one walker resumes on another walker of
     *  the same image (sim::WarmCache). */
    struct WarmState
    {
        Rng rng;
        std::vector<Frame> stack;
        std::uint64_t count = 0;
        std::uint32_t stickyCallee = 0;
        std::uint32_t stickyLeft = 0;
    };

    WarmState
    saveWarm() const
    {
        return {rng, stack, count, stickyCallee, stickyLeft};
    }

    void
    restoreWarm(const WarmState &s)
    {
        rng = s.rng;
        stack = s.stack;
        count = s.count;
        stickyCallee = s.stickyCallee;
        stickyLeft = s.stickyLeft;
        block = &currentBlock();
    }

  private:
    /** next() for terminators and loads/stores. */
    TraceEntry nextSlow();

    const BasicBlock &
    currentBlock() const
    {
        const Frame &f = stack.back();
        return program.functions[f.fn].blocks[f.blk];
    }

    /** Generate a load/store effective address. */
    Addr dataAddress(std::uint32_t fn);

    const Program &program;
    Rng rng;
    std::vector<Frame> stack;
    std::uint64_t count = 0;
    /** Server request batching: the dispatch loop tends to invoke the
     *  same handler several times in a row (phases), which also makes
     *  the indirect-call target realistically predictable. */
    std::uint32_t stickyCallee = 0;
    std::uint32_t stickyLeft = 0;
    /** The top frame's block (a cache of currentBlock()). */
    const BasicBlock *block = nullptr;
};

} // namespace dcfb::workload

#endif // DCFB_WORKLOAD_TRACE_H

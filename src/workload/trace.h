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
    Addr dataAddr = kInvalidAddr; //!< loads/stores only

    bool isBranch() const { return isa::isBranch(kind); }
    /** PC of the next retired instruction. */
    Addr nextPc() const { return taken ? target : pc + len; }
};
static_assert(sizeof(TraceEntry) == 32);

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
        // stores: it only advances the cursor.  Everything else
        // (terminators, data addresses) takes the out-of-line path.
        if (state.instr < termInstr) {
            const Instr in = instrs[state.instr];
            if (in.kind != isa::InstrKind::Load &&
                in.kind != isa::InstrKind::Store) {
                TraceEntry e;
                e.pc = state.pc;
                e.len = in.len;
                e.kind = in.kind;
                state.pc += in.len;
                ++state.instr;
                ++state.count;
                return e;
            }
        }
        return nextSlow();
    }

    /**
     * Walk the next @p n instructions for the functional warmup, one
     * basic block at a time, and report them to @p sink instead of
     * building TraceEntrys:
     *  - sink.instrBlock(pc) for the first instruction of each run of
     *    instructions in one cache block, where any other event also
     *    ends the run;
     *  - sink.data(addr) for each load or store's effective address;
     *  - sink.branch(e, blk, to) for each retired branch: @c e as next()
     *    returns it, @c blk the Program::blocks index of its block and
     *    @c to that of the block its target starts.
     *
     * Draws the same random numbers in the same order and leaves the
     * same WarmState as @p n calls of next(), also when the walk stops
     * mid-block.
     */
    template <typename Sink> void warmWalk(std::uint64_t n, Sink &sink);

    /** Retired-instruction count so far. */
    std::uint64_t retired() const { return state.count; }

  private:
    struct Frame
    {
        std::uint32_t fn = 0;
        std::uint32_t retBlk = 0;   //!< caller block to resume after return
        std::uint32_t tripBase = 0; //!< this invocation's first LoopTrip

        bool operator==(const Frame &) const = default;
    };

    /** Remaining trips of a loop whose back edge ends block @c blk.
     *  Loops run a bounded number of trips and exit - unbounded
     *  geometric retries would trap the walk in tiny regions for
     *  arbitrarily long stretches. */
    struct LoopTrip
    {
        std::uint32_t blk = 0;
        std::uint32_t left = 0;

        bool operator==(const LoopTrip &) const = default;
    };

  public:
    /** The walk's dynamic state, free of any reference to the program,
     *  so a checkpoint taken on one walker resumes on another walker of
     *  the same image (sim::WarmCache). */
    struct WarmState
    {
        Rng rng;
        std::vector<Frame> stack;
        /** Pending loop trips of every live frame, innermost frame
         *  last; a return truncates to the frame's tripBase. */
        std::vector<LoopTrip> trips;
        std::uint32_t blk = 0;   //!< current Program::blocks index
        std::uint32_t instr = 0; //!< next Program::instrs index
        Addr pc = 0;             //!< PC of instrs[instr]
        std::uint64_t count = 0;
        /** Server request batching: the dispatch loop tends to invoke
         *  the same handler several times in a row (phases), which also
         *  makes the indirect-call target realistically predictable. */
        std::uint32_t stickyCallee = 0;
        std::uint32_t stickyLeft = 0;

        bool operator==(const WarmState &) const = default;
    };

    WarmState saveWarm() const { return state; }

    void
    restoreWarm(const WarmState &saved)
    {
        state = saved;
        termInstr = program.blocks[state.blk].termInstr();
    }

  private:
    /** next() for terminators and loads/stores. */
    TraceEntry nextSlow();

    /** Retire the current block's terminator @p e (pc, len and kind
     *  set): fill in its outcome and target, move to the next block,
     *  and return the Program::blocks index of the block @c e.target
     *  starts (of the next block when @p e is no branch). */
    std::uint32_t endBlock(TraceEntry &e);

    /** Move the cursor to the head of block @p b. */
    void enterBlock(std::uint32_t b);

    /** Outcome of the back edge ending the current block. */
    bool takeBackEdge(const BasicBlock &bb);

    /** Generate a load/store effective address. */
    Addr dataAddress(std::uint32_t fn);

    const Program &program;
    const Instr *instrs;
    WarmState state;
    /** The current block's terminator (a cache of blocks[state.blk]). */
    std::uint32_t termInstr = 0;
};

template <typename Sink>
void
TraceWalker::warmWalk(std::uint64_t n, Sink &sink)
{
    Addr run = kInvalidAddr; // cache block of the current instruction run
    while (n > 0) {
        const std::uint32_t first = state.instr;
        const std::uint32_t fn = state.stack.back().fn;
        // The block's instructions through its terminator, or the first n.
        const std::uint32_t end = n > termInstr - first
            ? termInstr + 1 : first + static_cast<std::uint32_t>(n);
        Addr pc = state.pc;
        for (std::uint32_t i = first; i < end; ++i) {
            const Instr in = instrs[i];
            if (blockAlign(pc) != run) {
                run = blockAlign(pc);
                sink.instrBlock(pc);
            }
            if (in.kind == isa::InstrKind::Load ||
                in.kind == isa::InstrKind::Store) {
                sink.data(dataAddress(fn));
                run = kInvalidAddr;
            }
            pc += in.len;
        }
        state.count += end - first;
        n -= end - first;
        if (end <= termInstr) {
            state.instr = end;
            state.pc = pc;
            return;
        }

        TraceEntry e;
        e.len = instrs[termInstr].len;
        e.kind = instrs[termInstr].kind;
        e.pc = pc - e.len;
        const std::uint32_t blk = state.blk;
        const std::uint32_t to = endBlock(e);
        if (e.isBranch()) {
            sink.branch(e, blk, to);
            run = kInvalidAddr;
        }
    }
}

} // namespace dcfb::workload

#endif // DCFB_WORKLOAD_TRACE_H

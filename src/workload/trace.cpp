#include "workload/trace.h"

#include <algorithm>

#include "rt/error.h"

namespace dcfb::workload {

using isa::InstrKind;

namespace {

/** Walk-stack depth bound; the generator's call-graph level rule keeps
 *  real programs far below it (maxCallDepth is single digits). */
constexpr std::size_t kMaxWalkDepth = 1u << 16;

/** A malformed CFG: the walk at block @p blk (a Program::blocks index)
 *  has nowhere valid to go.  Die with the walk coordinates instead of
 *  indexing out of bounds. */
[[noreturn]] void
raiseBadEdge(const char *what, const char *site, std::uint32_t fi,
             const Function &fn, std::uint32_t blk, std::uint32_t to)
{
    rt::raise(rt::Error(rt::ErrorKind::Workload, what)
                  .with("site", site)
                  .with("function", fi)
                  .with("block", blk)
                  .with("target block", to)
                  .with("function's first block", fn.firstBlock)
                  .with("blocks in function", fn.numBlocks));
}

} // namespace

TraceWalker::TraceWalker(const Program &program_, std::uint64_t seed)
    : program(program_), instrs(program_.instrs.data())
{
    if (program.functions.empty() || program.functions[0].numBlocks == 0 ||
        program.blocks[program.functions[0].firstBlock].numInstrs == 0) {
        rt::raise(rt::Error(rt::ErrorKind::Workload,
                            "program has no driver code to walk")
                      .with("functions", program.functions.size()));
    }
    state.rng = Rng(seed);
    state.stack.push_back(Frame{});
    enterBlock(program.functions[0].firstBlock);
}

void
TraceWalker::enterBlock(std::uint32_t b)
{
    const BasicBlock &bb = program.blocks[b];
    state.blk = b;
    state.instr = bb.firstInstr;
    state.pc = bb.start;
    termInstr = bb.termInstr();
}

Addr
TraceWalker::dataAddress(std::uint32_t fn)
{
    // Server-like data locality: most accesses hit a small per-function
    // hot region (stack frame / hot object), a slice walks the
    // function's 4 KB working set, and the tail sprays the shared heap
    // across the configured data footprint (this is what populates LLC
    // sets with data blocks for the DV-LLC experiments).
    std::uint64_t footprint = program.profile.dataFootprint;
    Rng &rng = state.rng;
    double u = rng.uniform();
    Addr region = program.dataBase + Addr{fn} * 4096;
    if (u < 0.93)
        return region + (rng.below(256) & ~7ull);
    if (u < 0.98)
        return region + (rng.below(4096) & ~7ull);
    return program.dataBase + 0x10000000ull +
        (rng.below(footprint ? footprint : 4096) & ~7ull);
}

bool
TraceWalker::takeBackEdge(const BasicBlock &bb)
{
    // Bounded loop: take the back edge for the drawn trip count, then
    // exit.  Mean trips follow the branch's taken bias.  A count stays
    // pending while the walk skips past its back edge, and its frame's
    // return drops it.
    const std::uint32_t blk = state.blk;
    auto first = state.trips.begin() + state.stack.back().tripBase;
    auto it = std::find_if(first, state.trips.end(),
                           [blk](const LoopTrip &t) { return t.blk == blk; });
    if (it == state.trips.end()) {
        auto mean = static_cast<std::uint32_t>(
            bb.takenProb / (1.0 - bb.takenProb + 1e-6));
        auto trips = static_cast<std::uint32_t>(
            state.rng.range(1, std::max(2u * mean, 2u)));
        state.trips.push_back({blk, trips});
        it = state.trips.end() - 1;
    }
    if (it->left > 0) {
        --it->left;
        return true;
    }
    // The top frame's trips are the tail, so this keeps them together.
    *it = state.trips.back();
    state.trips.pop_back();
    return false;
}

TraceEntry
TraceWalker::nextSlow()
{
    const Instr in = instrs[state.instr];

    TraceEntry e;
    e.pc = state.pc;
    e.len = in.len;
    e.kind = in.kind;
    ++state.count;

    if (e.kind == InstrKind::Load || e.kind == InstrKind::Store)
        e.dataAddr = dataAddress(state.stack.back().fn);

    if (state.instr != termInstr) {
        ++state.instr;
        state.pc += e.len;
        return e;
    }
    endBlock(e);
    return e;
}

std::uint32_t
TraceWalker::endBlock(TraceEntry &e)
{
    const BasicBlock &bb = program.blocks[state.blk];
    const std::uint32_t fi = state.stack.back().fn;
    const Function &fn = program.functions[fi];
    const std::uint32_t blk = state.blk;
    const bool branch = bb.term == TermKind::Cond || bb.term == TermKind::Jump;
    if (branch && !fn.contains(bb.targetBlock)) {
        raiseBadEdge("branch targets a block outside its function",
                     "branch", fi, fn, blk, bb.targetBlock);
    }
    std::uint32_t next = blk + 1;
    std::uint32_t to = next;
    switch (bb.term) {
      case TermKind::FallThrough:
        break;
      case TermKind::Cond:
        e.taken = bb.targetBlock <= blk ? takeBackEdge(bb)
                                        : state.rng.chance(bb.takenProb);
        e.target = program.blocks[bb.targetBlock].start;
        to = bb.targetBlock;
        next = e.taken ? bb.targetBlock : next;
        break;
      case TermKind::Jump:
        e.taken = true;
        e.target = program.blocks[bb.targetBlock].start;
        next = to = bb.targetBlock;
        break;
      case TermKind::Call:
      case TermKind::IndirectCall: {
        e.taken = true;
        std::uint32_t callee;
        if (bb.term == TermKind::Call) {
            callee = bb.callee;
        } else if (state.stickyLeft > 0) {
            // Request batching: stay on the current handler for a while.
            callee = state.stickyCallee;
            --state.stickyLeft;
        } else {
            std::uint64_t pick = state.rng.zipf(
                program.driverTargets.size(), program.profile.zipfSkew);
            callee = program.driverTargets[pick];
            state.stickyCallee = callee;
            state.stickyLeft = static_cast<std::uint32_t>(
                state.rng.range(1, 3));
        }
        if (callee >= program.functions.size() ||
            program.functions[callee].numBlocks == 0) {
            rt::raise(rt::Error(rt::ErrorKind::Workload,
                                "call targets a missing or empty function")
                          .with("function", fi)
                          .with("block", blk)
                          .with("callee", callee)
                          .with("functions", program.functions.size()));
        }
        // Self-referential call graphs (a cycle the generator's
        // strictly-increasing level rule forbids) would otherwise grow
        // the walk stack without bound.
        if (state.stack.size() >= kMaxWalkDepth) {
            rt::raise(rt::Error(rt::ErrorKind::Workload,
                                "call depth exceeded the walk bound")
                          .with("function", fi)
                          .with("callee", callee)
                          .with("depth", state.stack.size())
                          .with("bound", kMaxWalkDepth));
        }
        e.target = program.functions[callee].entry;
        state.stack.push_back(
            {callee, next, static_cast<std::uint32_t>(state.trips.size())});
        next = to = program.functions[callee].firstBlock;
        break;
      }
      case TermKind::Return: {
        e.taken = true;
        if (state.stack.size() <= 1) {
            // The driver's dispatch loop is endless by construction; a
            // Return terminator reaching it is a generator bug.
            rt::raise(rt::Error(rt::ErrorKind::Workload,
                                "the driver function returned")
                          .with("function", fi)
                          .with("block", blk)
                          .with("call depth", state.stack.size()));
        }
        const Frame &f = state.stack.back();
        next = f.retBlk;
        state.trips.resize(f.tripBase);
        state.stack.pop_back();
        e.target = program.blocks[next].start;
        to = next;
        break;
      }
    }
    // Falling through, a not-taken branch and a call all go on (or
    // come back) to the next block of the same function.
    bool call = bb.term == TermKind::Call || bb.term == TermKind::IndirectCall;
    if ((!e.taken || call) && !fn.contains(blk + 1)) {
        raiseBadEdge("trace walk fell off the end of a function",
                     call ? "call return-site"
                          : branch ? "cond not-taken" : "fall-through",
                     fi, fn, blk, blk + 1);
    }
    enterBlock(next);
    return to;
}

} // namespace dcfb::workload

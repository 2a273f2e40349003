#include "workload/trace.h"

#include "rt/error.h"

namespace dcfb::workload {

using isa::InstrKind;

namespace {

/** Walk-stack depth bound; the generator's call-graph level rule keeps
 *  real programs far below it (maxCallDepth is single digits). */
constexpr std::size_t kMaxWalkDepth = 1u << 16;

/** A walk stepping past a function's last block means the generator
 *  emitted a block with no successor — a malformed CFG.  Die with the
 *  walk coordinates instead of indexing out of bounds. */
[[noreturn]] void
raiseNoSuccessor(const char *site, std::uint32_t fn, std::uint32_t blk,
                 std::size_t blocks)
{
    rt::raise(rt::Error(rt::ErrorKind::Workload,
                        "trace walk fell off the end of a function")
                  .with("site", site)
                  .with("function", fn)
                  .with("block", blk)
                  .with("blocks in function", blocks));
}

} // namespace

TraceWalker::TraceWalker(const Program &program_, std::uint64_t seed)
    : program(program_), rng(seed)
{
    if (program.functions.empty() || program.functions[0].blocks.empty() ||
        program.functions[0].blocks[0].numInstrs() == 0) {
        rt::raise(rt::Error(rt::ErrorKind::Workload,
                            "program has no driver code to walk")
                      .with("functions", program.functions.size()));
    }
    Frame root;
    stack.push_back(root);
    block = &currentBlock();
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
    double u = rng.uniform();
    Addr addr;
    if (u < 0.93) {
        Addr region = program.dataBase + Addr{fn} * 4096;
        addr = region + (rng.below(256) & ~7ull);
    } else if (u < 0.98) {
        Addr region = program.dataBase + Addr{fn} * 4096;
        addr = region + (rng.below(4096) & ~7ull);
    } else {
        addr = program.dataBase + 0x10000000ull +
            (rng.below(footprint ? footprint : 4096) & ~7ull);
    }
    return addr;
}

TraceEntry
TraceWalker::nextSlow()
{
    Frame &f = stack.back();
    const Function &fn = program.functions[f.fn];
    const BasicBlock &bb = fn.blocks[f.blk];

    TraceEntry e;
    e.pc = bb.pcs[f.instr];
    e.len = bb.lens[f.instr];
    e.kind = bb.kinds[f.instr];
    ++count;

    bool is_terminator = f.instr + 1 == bb.numInstrs();

    if (e.kind == InstrKind::Load || e.kind == InstrKind::Store)
        e.dataAddr = dataAddress(f.fn);

    if (!is_terminator || bb.term == TermKind::FallThrough) {
        if (!is_terminator) {
            ++f.instr;
        } else {
            // Fall into the next block of the same function.
            if (f.blk + 1 >= fn.blocks.size())
                raiseNoSuccessor("fall-through", f.fn, f.blk,
                                 fn.blocks.size());
            ++f.blk;
            f.instr = 0;
            block = &currentBlock();
        }
        e.nextPc = e.pc + e.len;
        return e;
    }

    switch (bb.term) {
      case TermKind::Cond: {
        if (bb.targetBlock >= fn.blocks.size()) {
            rt::raise(rt::Error(rt::ErrorKind::Workload,
                                "branch targets a block outside its function")
                          .with("function", f.fn)
                          .with("block", f.blk)
                          .with("target block", bb.targetBlock)
                          .with("blocks in function", fn.blocks.size()));
        }
        bool back_edge = bb.targetBlock <= f.blk;
        if (back_edge) {
            // Bounded loop: take the back edge for the drawn trip count,
            // then exit.  Mean trips follow the branch's taken bias.
            auto [it, fresh] = f.loopTrips.try_emplace(e.pc, 0);
            if (fresh) {
                auto mean = static_cast<std::uint32_t>(
                    bb.takenProb / (1.0 - bb.takenProb + 1e-6));
                it->second = static_cast<std::uint32_t>(
                    rng.range(1, std::max(2u * mean, 2u)));
            }
            if (it->second > 0) {
                --it->second;
                e.taken = true;
            } else {
                f.loopTrips.erase(it);
                e.taken = false;
            }
        } else {
            e.taken = rng.chance(bb.takenProb);
        }
        e.target = fn.blocks[bb.targetBlock].start;
        if (e.taken) {
            e.nextPc = e.target;
            f.blk = bb.targetBlock;
        } else {
            if (f.blk + 1 >= fn.blocks.size())
                raiseNoSuccessor("cond not-taken", f.fn, f.blk,
                                 fn.blocks.size());
            e.nextPc = e.pc + e.len;
            ++f.blk;
        }
        f.instr = 0;
        break;
      }
      case TermKind::Jump: {
        e.taken = true;
        if (bb.targetBlock >= fn.blocks.size()) {
            rt::raise(rt::Error(rt::ErrorKind::Workload,
                                "jump targets a block outside its function")
                          .with("function", f.fn)
                          .with("block", f.blk)
                          .with("target block", bb.targetBlock)
                          .with("blocks in function", fn.blocks.size()));
        }
        e.target = fn.blocks[bb.targetBlock].start;
        e.nextPc = e.target;
        f.blk = bb.targetBlock;
        f.instr = 0;
        break;
      }
      case TermKind::Call:
      case TermKind::IndirectCall: {
        e.taken = true;
        std::uint32_t callee;
        if (bb.term == TermKind::Call) {
            callee = bb.callee;
        } else if (stickyLeft > 0) {
            // Request batching: stay on the current handler for a while.
            callee = stickyCallee;
            --stickyLeft;
        } else {
            std::uint64_t pick = rng.zipf(program.driverTargets.size(),
                                          program.profile.zipfSkew);
            callee = program.driverTargets[pick];
            stickyCallee = callee;
            stickyLeft = static_cast<std::uint32_t>(rng.range(1, 3));
        }
        if (callee >= program.functions.size() ||
            program.functions[callee].blocks.empty()) {
            rt::raise(rt::Error(rt::ErrorKind::Workload,
                                "call targets a missing or empty function")
                          .with("function", f.fn)
                          .with("block", f.blk)
                          .with("callee", callee)
                          .with("functions", program.functions.size()));
        }
        // Self-referential call graphs (a cycle the generator's
        // strictly-increasing level rule forbids) would otherwise grow
        // the walk stack without bound.
        if (stack.size() >= kMaxWalkDepth) {
            rt::raise(rt::Error(rt::ErrorKind::Workload,
                                "call depth exceeded the walk bound")
                          .with("function", f.fn)
                          .with("callee", callee)
                          .with("depth", stack.size())
                          .with("bound", kMaxWalkDepth));
        }
        e.target = program.functions[callee].entry;
        e.nextPc = e.target;
        if (f.blk + 1 >= fn.blocks.size())
            raiseNoSuccessor("call return-site", f.fn, f.blk,
                             fn.blocks.size());
        Frame callee_frame;
        callee_frame.fn = callee;
        callee_frame.retBlk = f.blk + 1;
        stack.push_back(callee_frame);
        break;
      }
      case TermKind::Return: {
        e.taken = true;
        if (stack.size() <= 1) {
            // The driver's dispatch loop is endless by construction; a
            // Return terminator reaching it is a generator bug.
            rt::raise(rt::Error(rt::ErrorKind::Workload,
                                "the driver function returned")
                          .with("function", f.fn)
                          .with("block", f.blk)
                          .with("call depth", stack.size()));
        }
        std::uint32_t resume_blk = f.retBlk;
        stack.pop_back();
        Frame &caller = stack.back();
        caller.blk = resume_blk;
        caller.instr = 0;
        const Function &cf = program.functions[caller.fn];
        e.target = cf.blocks[resume_blk].start;
        e.nextPc = e.target;
        break;
      }
      case TermKind::FallThrough:
        break; // handled above
    }
    block = &currentBlock();
    return e;
}

} // namespace dcfb::workload

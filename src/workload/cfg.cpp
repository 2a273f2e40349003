#include "workload/cfg.h"

#include <algorithm>
#include <cassert>
#include <span>

#include "isa/vl_encoding.h"

namespace dcfb::workload {

using isa::InstrKind;

namespace {

/** Assign call-graph levels: driver = 0, workers span 1..maxCallDepth. */
std::uint32_t
workerLevel(std::uint32_t worker_idx, std::uint32_t num_workers,
            std::uint32_t max_depth)
{
    if (max_depth <= 1 || num_workers == 0)
        return 1;
    return 1 + (worker_idx * max_depth) / (num_workers + 1);
}

/** Draw a body-instruction kind from the load/store/ALU mix. */
InstrKind
drawBodyKind(Rng &rng, const WorkloadProfile &p)
{
    double u = rng.uniform();
    if (u < p.loadFrac)
        return InstrKind::Load;
    if (u < p.loadFrac + p.storeFrac)
        return InstrKind::Store;
    return InstrKind::Alu;
}

/** Draw a variable-length size for a body instruction (x86-like mix). */
std::uint8_t
drawVlBodyLen(Rng &rng)
{
    // Weighted toward short instructions: mean ~4.2 bytes.
    static const std::uint8_t table[] = {2, 2, 3, 3, 3, 4, 4, 5, 6, 7, 8, 11};
    return table[rng.below(sizeof(table))];
}

/** Instruction byte length given the configured ISA flavour. */
std::uint8_t
lenFor(const WorkloadProfile &p, Rng &rng, InstrKind kind, bool terminator)
{
    if (!p.variableLength)
        return kInstrBytes;
    if (!terminator)
        return drawVlBodyLen(rng);
    switch (kind) {
      case InstrKind::CondBranch:
      case InstrKind::Jump:
      case InstrKind::Call:
        return static_cast<std::uint8_t>(isa::kVlMinBranchLength +
                                         rng.below(3)); // 5..7 bytes
      case InstrKind::Return:
      case InstrKind::IndirectCall:
        return static_cast<std::uint8_t>(2 + rng.below(2)); // 2..3 bytes
      default:
        return drawVlBodyLen(rng);
    }
}

/** The InstrKind emitted for a terminator class. */
InstrKind
kindFor(TermKind term, InstrKind fallthrough_kind)
{
    switch (term) {
      case TermKind::Cond: return InstrKind::CondBranch;
      case TermKind::Jump: return InstrKind::Jump;
      case TermKind::Call: return InstrKind::Call;
      case TermKind::IndirectCall: return InstrKind::IndirectCall;
      case TermKind::Return: return InstrKind::Return;
      case TermKind::FallThrough: return fallthrough_kind;
    }
    return fallthrough_kind;
}

/** First/last function index at each call-graph level (contiguous). */
struct LevelRanges
{
    std::vector<std::uint32_t> lo, hi; //!< indexed by level; 0 = empty

    /**
     * Range of candidate callees for a caller at @p level.  Function
     * levels are monotonic in the index, so "any deeper function" is the
     * contiguous tail starting at the first non-empty deeper level.
     */
    std::pair<std::uint32_t, std::uint32_t>
    calleesAbove(std::uint32_t level) const
    {
        std::uint32_t last = 0;
        for (std::uint32_t h : hi)
            last = std::max(last, h);
        for (std::uint32_t l = level + 1; l < lo.size(); ++l) {
            if (lo[l] != 0)
                return {lo[l], last};
        }
        return {0, 0};
    }
};

/** Structural pass: append function @p fi's blocks and instructions,
 *  choosing block counts, sizes and terminators. */
void
buildFunctionStructure(Program &prog, std::uint32_t fi,
                       const WorkloadProfile &p, Rng &rng,
                       const LevelRanges &ranges)
{
    bool is_driver = fi == 0;
    Function &fn = prog.functions[fi];
    std::uint32_t nblocks = is_driver
        ? std::max<std::uint32_t>(p.driverBlocks, 2)
        : static_cast<std::uint32_t>(rng.range(p.minBlocks, p.maxBlocks));
    fn.firstBlock = static_cast<std::uint32_t>(prog.blocks.size());
    fn.numBlocks = nblocks;
    prog.blocks.resize(fn.endBlock());
    std::span<BasicBlock> blocks(prog.blocks.data() + fn.firstBlock, nblocks);

    // Body sizes and kinds first (terminator slot patched below).
    for (auto &bb : blocks) {
        auto n = static_cast<std::uint32_t>(
            is_driver ? rng.range(3, 6) : rng.range(p.minInstrs, p.maxInstrs));
        bb.firstInstr = static_cast<std::uint32_t>(prog.instrs.size());
        bb.numInstrs = n;
        for (std::uint32_t j = 0; j < n; ++j)
            prog.instrs.push_back({0, drawBodyKind(rng, p)});
    }

    // Terminator pass.  Targets are function-local here and rebased
    // onto Program::blocks when the pass is done.
    for (std::uint32_t i = 0; i < nblocks; ++i) {
        BasicBlock &bb = blocks[i];
        if (is_driver) {
            // Dispatch loop: every block indirect-calls a worker; the last
            // block jumps back to the top.
            if (i + 1 == nblocks) {
                bb.term = TermKind::Jump;
                bb.targetBlock = 0;
            } else {
                bb.term = TermKind::IndirectCall;
            }
            continue;
        }
        if (i + 1 == nblocks) {
            bb.term = TermKind::Return;
            continue;
        }
        if (bb.cold) {
            // Cold blocks rejoin the hot path immediately.
            bb.term = TermKind::FallThrough;
            continue;
        }
        double u = rng.uniform();
        bool can_skip = i + 2 < nblocks && !blocks[i + 1].cold;
        if (u < p.callProb) {
            // Static call: callee must have a strictly higher level.  The
            // level partition makes candidates a contiguous index range.
            auto [lo, hi] = ranges.calleesAbove(fn.level);
            if (lo != 0) {
                bb.term = TermKind::Call;
                // Skewed callee choice: hot functions call hot helpers,
                // concentrating the active footprint like real server
                // software (flat choice would make the whole binary hot).
                bb.callee = static_cast<std::uint32_t>(
                    lo + rng.zipf(hi - lo + 1, p.callSkew));
                continue;
            }
            // Deepest level: fall through instead.
            bb.term = TermKind::FallThrough;
            continue;
        }
        if (u < p.callProb + p.condProb) {
            bb.term = TermKind::Cond;
            double v = rng.uniform();
            if (v < p.loopProb && i > 0) {
                // Loop back a few blocks.
                bb.targetBlock = static_cast<std::uint32_t>(
                    rng.range(i >= 3 ? i - 3 : 0, i));
                // Loops iterate several times before exiting, so the
                // back edge is mostly taken (stable patterns, Fig. 6).
                bb.takenProb = 0.8;
            } else if (can_skip && v < p.loopProb + p.coldGuardFrac) {
                // Guard over a rarely-executed region (catch/error path).
                bb.targetBlock = i + 2;
                bb.takenProb = 0.97;
                blocks[i + 1].cold = true;
            } else if (can_skip) {
                // if/else: skip the next block with a biased direction.
                bb.targetBlock = i + 2;
                bb.takenProb =
                    rng.chance(0.5) ? p.takenBias : 1.0 - p.takenBias;
            } else {
                // No room to skip: loop back to self-start (tight loop).
                bb.targetBlock = i;
                bb.takenProb = 0.6;
            }
            continue;
        }
        if (u < p.callProb + p.condProb + p.jumpProb && can_skip) {
            // try/catch shape: jump over a never-executed handler.
            bb.term = TermKind::Jump;
            bb.targetBlock = i + 2;
            blocks[i + 1].cold = true;
            continue;
        }
        bb.term = TermKind::FallThrough;
    }

    // Emit terminator instruction kinds and lengths.
    for (auto &bb : blocks) {
        bb.targetBlock += fn.firstBlock;
        Instr &last = prog.instrs[bb.termInstr()];
        last.kind = kindFor(bb.term, last.kind);
        for (std::uint32_t j = bb.firstInstr; j <= bb.termInstr(); ++j) {
            bool is_term = j == bb.termInstr() &&
                bb.term != TermKind::FallThrough;
            prog.instrs[j].len = lenFor(p, rng, prog.instrs[j].kind, is_term);
        }
    }
}

/** Encode pass: write real bytes so pre-decoders can work. */
void
encodeProgram(Program &prog, bool vl)
{
    std::vector<std::uint8_t> bytes;
    for (const auto &bb : prog.blocks) {
        Addr pc = bb.start;
        for (std::uint32_t j = bb.firstInstr; j <= bb.termInstr(); ++j) {
            const Instr in = prog.instrs[j];
            Addr target = kInvalidAddr;
            bool has_target = false;
            if (j == bb.termInstr() && isa::hasEncodedTarget(in.kind)) {
                has_target = true;
                if (bb.term == TermKind::Call)
                    target = prog.functions[bb.callee].entry;
                else
                    target = prog.blocks[bb.targetBlock].start;
            }
            if (!vl) {
                isa::DecodedInstr di{in.kind, has_target, target};
                std::uint32_t word = isa::encodeInstr(pc, di);
                std::uint8_t buf[kInstrBytes];
                isa::writeWord(buf, word);
                prog.image.write(pc, buf, kInstrBytes);
            } else {
                isa::VlDecodedInstr di;
                di.kind = in.kind;
                di.length = in.len;
                di.hasTarget = has_target;
                di.target = target;
                bytes.clear();
                isa::vlEncodeInstr(pc, di, bytes);
                prog.image.write(pc, bytes.data(), bytes.size());
            }
            pc += in.len;
        }
    }
}

} // namespace

Program
buildProgram(const WorkloadProfile &profile)
{
    Program prog;
    prog.profile = profile;
    prog.codeBase = 0x40000;
    prog.dataBase = 0x40000000ull;

    Rng rng(profile.seed);

    // Create the function shells with levels so static call edges can be
    // chosen during the structure pass.
    prog.functions.resize(profile.numFunctions + 1);
    prog.functions[0].level = 0;
    for (std::uint32_t f = 1; f < prog.functions.size(); ++f) {
        prog.functions[f].level =
            workerLevel(f - 1, profile.numFunctions, profile.maxCallDepth);
    }

    LevelRanges ranges;
    ranges.lo.assign(profile.maxCallDepth + 2, 0);
    ranges.hi.assign(profile.maxCallDepth + 2, 0);
    for (std::uint32_t f = 1; f < prog.functions.size(); ++f) {
        std::uint32_t l = prog.functions[f].level;
        if (l < ranges.lo.size()) {
            if (ranges.lo[l] == 0)
                ranges.lo[l] = f;
            ranges.hi[l] = f;
        }
    }

    for (std::uint32_t f = 0; f < prog.functions.size(); ++f)
        buildFunctionStructure(prog, f, profile, rng, ranges);
    prog.blocks.shrink_to_fit();
    prog.instrs.shrink_to_fit();

    // Layout pass: assign block starts; functions are 64-byte aligned.
    Addr cursor = prog.codeBase;
    for (auto &fn : prog.functions) {
        cursor = (cursor + kBlockBytes - 1) & ~Addr{kBlockBytes - 1};
        fn.entry = cursor;
        for (std::uint32_t b = fn.firstBlock; b < fn.endBlock(); ++b) {
            BasicBlock &bb = prog.blocks[b];
            bb.start = cursor;
            for (std::uint32_t j = bb.firstInstr; j < bb.termInstr(); ++j)
                cursor += prog.instrs[j].len;
            bb.termOffset = static_cast<std::uint32_t>(cursor - bb.start);
            cursor += prog.instrs[bb.termInstr()].len;
        }
    }
    prog.codeEnd = cursor;

    encodeProgram(prog, profile.variableLength);
    prog.image.shrinkToFit();

    // Driver dispatch targets: level-1 workers (the hot entry points).
    for (std::uint32_t f = 1; f < prog.functions.size(); ++f) {
        if (prog.functions[f].level == 1)
            prog.driverTargets.push_back(f);
    }
    assert(!prog.driverTargets.empty());
    return prog;
}

} // namespace dcfb::workload

/**
 * @file
 * Tests for the program image, CFG builder, trace walker and profiles:
 * determinism, structural invariants (every control transfer lands on a
 * basic-block head, calls and returns balance), and encoding consistency
 * (the image bytes decode to what the walker retires).
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>

#include "common/rng.h"
#include "isa/predecoder.h"
#include "isa/vl_encoding.h"
#include "workload/cfg.h"
#include "workload/image.h"
#include "workload/profiles.h"
#include "workload/trace.h"

#include "hand_cfg.h"

namespace dcfb::workload {
namespace {

WorkloadProfile
tinyProfile(bool vl = false)
{
    WorkloadProfile p;
    p.name = "tiny";
    p.numFunctions = 24;
    p.minBlocks = 2;
    p.maxBlocks = 6;
    p.minInstrs = 3;
    p.maxInstrs = 8;
    p.variableLength = vl;
    p.seed = 123;
    return p;
}

TEST(ProgramImage, WriteReadRoundTrip)
{
    ProgramImage img;
    std::uint8_t data[100];
    for (int i = 0; i < 100; ++i)
        data[i] = static_cast<std::uint8_t>(i);
    img.write(0x1010, data, 100); // crosses two block boundaries

    std::uint8_t out[100] = {};
    EXPECT_EQ(img.read(0x1010, out, 100), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(out[i], data[i]);
}

TEST(ProgramImage, ReadStopsAtUnmapped)
{
    ProgramImage img;
    std::uint8_t b = 0xff;
    img.write(0x1000, &b, 1);
    std::uint8_t out[128];
    // Block 0x1000 mapped (zero-filled beyond our byte), 0x1040 is not.
    EXPECT_EQ(img.read(0x1000, out, 128), 64u);
}

TEST(ProgramImage, BlockLookup)
{
    ProgramImage img;
    std::uint8_t b = 1;
    img.write(0x2000, &b, 1);
    EXPECT_NE(img.block(0x203f), nullptr);
    EXPECT_EQ(img.block(0x2040), nullptr);
    EXPECT_TRUE(img.contains(0x2001));
    EXPECT_EQ(img.numBlocks(), 1u);
}

TEST(ProgramImage, BlocksBetweenDistantWritesStayUnmapped)
{
    ProgramImage img;
    const Addr lo = 0x10000;
    const Addr hi = lo + 1024 * kBlockBytes;
    std::uint8_t b = 0xab;
    img.write(hi, &b, 1); // the higher block first: two runs, either order
    img.write(lo, &b, 1);
    EXPECT_EQ(img.numBlocks(), 2u);
    std::uint8_t out[2 * kBlockBytes];
    for (Addr a = lo + kBlockBytes; a < hi; a += kBlockBytes) {
        ASSERT_FALSE(img.contains(a)) << std::hex << a;
        ASSERT_EQ(img.block(a), nullptr) << std::hex << a;
        ASSERT_EQ(img.read(a, out, 1), 0u) << std::hex << a;
    }
    EXPECT_FALSE(img.contains(lo - 1));
    EXPECT_FALSE(img.contains(hi + kBlockBytes));
    EXPECT_EQ(img.read(lo, out, sizeof(out)), kBlockBytes);
    EXPECT_EQ(img.read(hi, out, sizeof(out)), kBlockBytes);
    EXPECT_EQ(out[0], 0xab);
}

TEST(ProgramImage, RandomWritesMatchABlockMap)
{
    // Writes in random order grow, prepend to and merge runs; every
    // block must read back as a block-keyed map says.
    ProgramImage img;
    std::map<Addr, ProgramImage::Block> want;
    Rng rng(11);
    const Addr base = 0x40000;
    for (int i = 0; i < 400; ++i) {
        Addr addr = base + rng.below(96 * kBlockBytes);
        std::uint8_t data[100];
        std::size_t n = 1 + rng.below(sizeof(data));
        for (std::size_t k = 0; k < n; ++k) {
            data[k] = static_cast<std::uint8_t>(rng.below(256));
            want[blockNumber(addr + k)][blockOffset(addr + k)] = data[k];
        }
        img.write(addr, data, n);
        ASSERT_EQ(img.numBlocks(), want.size()) << "write " << i;
    }
    for (Addr a = base - kBlockBytes; a < base + 100 * kBlockBytes;
         a += kBlockBytes) {
        auto it = want.find(blockNumber(a));
        const ProgramImage::Block *got = img.block(a);
        ASSERT_EQ(got != nullptr, it != want.end()) << std::hex << a;
        if (got) {
            EXPECT_EQ(*got, it->second) << std::hex << a;
        }
    }
}

/** PC of every instruction of @p bb, plus its end as the last element. */
std::vector<Addr>
blockPcs(const Program &prog, const BasicBlock &bb)
{
    std::vector<Addr> pcs{bb.start};
    for (std::uint32_t j = bb.firstInstr; j <= bb.termInstr(); ++j)
        pcs.push_back(pcs.back() + prog.instrs[j].len);
    return pcs;
}

Addr
termPc(const Program &prog, const BasicBlock &bb)
{
    return blockPcs(prog, bb).rbegin()[1];
}

TEST(CfgBuilder, DeterministicForSeed)
{
    Program a = buildProgram(tinyProfile());
    Program b = buildProgram(tinyProfile());
    ASSERT_EQ(a.functions.size(), b.functions.size());
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    ASSERT_EQ(a.instrs.size(), b.instrs.size());
    EXPECT_EQ(a.codeEnd, b.codeEnd);
    for (std::size_t f = 0; f < a.functions.size(); ++f) {
        EXPECT_EQ(a.functions[f].numBlocks, b.functions[f].numBlocks);
        EXPECT_EQ(a.functions[f].entry, b.functions[f].entry);
    }
}

TEST(CfgBuilder, FunctionsAreBlockAligned)
{
    Program prog = buildProgram(tinyProfile());
    for (const auto &fn : prog.functions) {
        EXPECT_EQ(fn.entry % kBlockBytes, 0u);
        EXPECT_EQ(prog.blocks[fn.firstBlock].start, fn.entry);
    }
}

TEST(CfgBuilder, LayoutIsContiguousAndOrdered)
{
    // Functions tile the block array and blocks tile the instruction
    // array, both in address order; each block caches its terminator's
    // offset.
    Program prog = buildProgram(tinyProfile());
    Addr prev_end = prog.codeBase;
    std::uint32_t next_block = 0, next_instr = 0;
    for (const auto &fn : prog.functions) {
        EXPECT_GE(fn.entry, prev_end);
        EXPECT_EQ(fn.firstBlock, next_block);
        next_block = fn.endBlock();
        Addr cursor = fn.entry;
        for (std::uint32_t b = fn.firstBlock; b < fn.endBlock(); ++b) {
            const auto &bb = prog.blocks[b];
            EXPECT_EQ(bb.start, cursor);
            EXPECT_EQ(bb.firstInstr, next_instr);
            EXPECT_EQ(bb.termPc(), termPc(prog, bb));
            next_instr += bb.numInstrs;
            cursor = blockPcs(prog, bb).back();
        }
        prev_end = cursor;
    }
    EXPECT_EQ(next_block, prog.blocks.size());
    EXPECT_EQ(next_instr, prog.instrs.size());
    EXPECT_EQ(prev_end, prog.codeEnd);
}

TEST(CfgBuilder, TerminatorTargetsAreValid)
{
    Program prog = buildProgram(tinyProfile());
    for (const auto &fn : prog.functions) {
        for (std::uint32_t i = fn.firstBlock; i < fn.endBlock(); ++i) {
            const auto &bb = prog.blocks[i];
            switch (bb.term) {
              case TermKind::Cond:
              case TermKind::Jump:
                EXPECT_GE(bb.targetBlock, fn.firstBlock);
                EXPECT_LT(bb.targetBlock, fn.endBlock());
                break;
              case TermKind::Call:
                ASSERT_LT(bb.callee, prog.functions.size());
                EXPECT_GT(prog.functions[bb.callee].level, fn.level);
                EXPECT_LT(i + 1, fn.endBlock()); // return site exists
                break;
              case TermKind::IndirectCall:
                EXPECT_LT(i + 1, fn.endBlock());
                break;
              case TermKind::Return:
                EXPECT_EQ(i + 1, fn.endBlock());
                break;
              case TermKind::FallThrough:
                if (&fn != &prog.functions[0]) {
                    EXPECT_LT(i + 1, fn.endBlock());
                }
                break;
            }
        }
    }
}

TEST(CfgBuilder, LastWorkerBlockReturns)
{
    Program prog = buildProgram(tinyProfile());
    for (std::size_t f = 1; f < prog.functions.size(); ++f) {
        EXPECT_EQ(prog.blocks[prog.functions[f].endBlock() - 1].term,
                  TermKind::Return);
    }
}

TEST(CfgBuilder, DriverLoops)
{
    Program prog = buildProgram(tinyProfile());
    const auto &driver = prog.functions[0];
    const auto &last = prog.blocks[driver.endBlock() - 1];
    EXPECT_EQ(last.term, TermKind::Jump);
    EXPECT_EQ(last.targetBlock, driver.firstBlock);
    for (std::uint32_t i = driver.firstBlock; i + 1 < driver.endBlock(); ++i)
        EXPECT_EQ(prog.blocks[i].term, TermKind::IndirectCall);
}

TEST(CfgBuilder, ImageCoversAllCode)
{
    Program prog = buildProgram(tinyProfile());
    for (const auto &bb : prog.blocks) {
        EXPECT_TRUE(prog.image.contains(bb.start));
        EXPECT_TRUE(prog.image.contains(blockPcs(prog, bb).back() - 1));
    }
}

TEST(CfgBuilder, EncodedTerminatorsDecodeToThemselves)
{
    Program prog = buildProgram(tinyProfile());
    isa::Predecoder pd(prog.image, false);
    for (const auto &bb : prog.blocks) {
        if (bb.term != TermKind::Cond && bb.term != TermKind::Jump &&
            bb.term != TermKind::Call) {
            continue;
        }
        Addr pc = termPc(prog, bb);
        auto hits = pd.decodeAt(blockAlign(pc), blockOffset(pc));
        ASSERT_EQ(hits.size(), 1u);
        EXPECT_TRUE(hits[0].hasTarget);
        Addr expect = bb.term == TermKind::Call
            ? prog.functions[bb.callee].entry
            : prog.blocks[bb.targetBlock].start;
        EXPECT_EQ(hits[0].target, expect);
    }
}

TEST(CfgBuilder, VariableLengthImageDecodes)
{
    Program prog = buildProgram(tinyProfile(true));
    isa::Predecoder pd(prog.image, true);
    int checked = 0;
    for (const auto &bb : prog.blocks) {
        if (bb.term != TermKind::Cond && bb.term != TermKind::Jump)
            continue;
        Addr pc = termPc(prog, bb);
        auto hits = pd.decodeAt(blockAlign(pc), blockOffset(pc));
        ASSERT_EQ(hits.size(), 1u) << "pc=" << std::hex << pc;
        EXPECT_EQ(hits[0].target, prog.blocks[bb.targetBlock].start);
        ++checked;
    }
    EXPECT_GT(checked, 5);
}

TEST(TraceWalker, DeterministicForSeed)
{
    Program prog = buildProgram(tinyProfile());
    TraceWalker a(prog, 7), b(prog, 7);
    for (int i = 0; i < 5000; ++i) {
        TraceEntry ea = a.next(), eb = b.next();
        ASSERT_EQ(ea.pc, eb.pc);
        ASSERT_EQ(ea.nextPc(), eb.nextPc());
        ASSERT_EQ(ea.taken, eb.taken);
    }
}

TEST(TraceWalker, StreamIsConnected)
{
    Program prog = buildProgram(tinyProfile());
    TraceWalker w(prog, 11);
    TraceEntry prev = w.next();
    for (int i = 0; i < 20000; ++i) {
        TraceEntry e = w.next();
        ASSERT_EQ(e.pc, prev.nextPc()) << "disconnected at step " << i;
        prev = e;
    }
}

TEST(TraceWalker, TransfersLandOnBlockHeads)
{
    Program prog = buildProgram(tinyProfile());
    std::set<Addr> heads;
    for (const auto &bb : prog.blocks)
        heads.insert(bb.start);

    TraceWalker w(prog, 13);
    for (int i = 0; i < 20000; ++i) {
        TraceEntry e = w.next();
        if (e.isBranch() && e.taken) {
            ASSERT_TRUE(heads.count(e.nextPc())) << std::hex << e.nextPc();
        }
    }
}

TEST(TraceWalker, CallsAndReturnsBalance)
{
    Program prog = buildProgram(tinyProfile());
    TraceWalker w(prog, 17);
    std::int64_t depth = 0;
    std::int64_t max_depth = 0;
    for (int i = 0; i < 50000; ++i) {
        TraceEntry e = w.next();
        if (e.kind == isa::InstrKind::Call ||
            e.kind == isa::InstrKind::IndirectCall) {
            ++depth;
        } else if (e.kind == isa::InstrKind::Return) {
            --depth;
        }
        ASSERT_GE(depth, 0);
        max_depth = std::max(max_depth, depth);
    }
    EXPECT_GT(max_depth, 0);
    EXPECT_LE(max_depth, tinyProfile().maxCallDepth + 1);
}

TEST(TraceWalker, ReturnsGoToCallSiteSuccessor)
{
    Program prog = buildProgram(tinyProfile());
    TraceWalker w(prog, 19);
    std::vector<Addr> expected_returns;
    for (int i = 0; i < 50000; ++i) {
        TraceEntry e = w.next();
        if (e.kind == isa::InstrKind::Call ||
            e.kind == isa::InstrKind::IndirectCall) {
            // The matching return must land at the head of the block after
            // the call block.  Compute it from the CFG.
            expected_returns.push_back(kInvalidAddr); // placeholder depth
        } else if (e.kind == isa::InstrKind::Return) {
            ASSERT_FALSE(expected_returns.empty());
            expected_returns.pop_back();
            // The return target is a block head (checked in the block-head
            // test); here we check it is in the same function region as
            // some caller, i.e. code space.
            EXPECT_GE(e.nextPc(), prog.codeBase);
            EXPECT_LT(e.nextPc(), prog.codeEnd);
        }
    }
}

TEST(TraceWalker, DataAddressesOnlyOnMemoryOps)
{
    Program prog = buildProgram(tinyProfile());
    TraceWalker w(prog, 23);
    int mem_ops = 0;
    for (int i = 0; i < 20000; ++i) {
        TraceEntry e = w.next();
        bool is_mem = e.kind == isa::InstrKind::Load ||
            e.kind == isa::InstrKind::Store;
        EXPECT_EQ(e.dataAddr != kInvalidAddr, is_mem);
        if (is_mem) {
            ++mem_ops;
            EXPECT_GE(e.dataAddr, prog.dataBase);
        }
    }
    EXPECT_GT(mem_ops, 1000);
}

TEST(TraceWalker, ColdBlocksAreRare)
{
    Program prog = buildProgram(tinyProfile());
    std::map<Addr, bool> head_is_cold;
    for (const auto &bb : prog.blocks)
        head_is_cold[bb.start] = bb.cold;
    TraceWalker w(prog, 29);
    std::uint64_t cold = 0, total = 0;
    for (int i = 0; i < 100000; ++i) {
        TraceEntry e = w.next();
        auto it = head_is_cold.find(e.pc);
        if (it != head_is_cold.end()) {
            ++total;
            cold += it->second;
        }
    }
    ASSERT_GT(total, 0u);
    EXPECT_LT(static_cast<double>(cold) / total, 0.10);
}

/** Pending trips of the loop whose back edge ends block @p blk, in the
 *  innermost frame of @p s; nullopt when none is pending. */
std::optional<std::uint32_t>
pendingTrips(const TraceWalker::WarmState &s, std::uint32_t blk)
{
    for (std::size_t i = s.stack.back().tripBase; i < s.trips.size(); ++i) {
        if (s.trips[i].blk == blk)
            return s.trips[i].left;
    }
    return std::nullopt;
}

TEST(TraceWalker, LoopTripsSurviveForwardSkipsAndDieWithTheirFrame)
{
    // The driver calls one worker with an inner loop (back edge in
    // block 4) that a forward branch (block 3) can skip, inside an
    // outer loop (back edge in block 5):
    //   2: head   3: cond -> 5   4: cond -> 2   5: cond -> 2   6: return
    Program prog;
    hand::addFunction(prog);
    hand::addBlock(prog, 0x1000, 2, TermKind::IndirectCall);
    hand::addBlock(prog, 0x1008, 2, TermKind::Jump, 0);
    hand::addFunction(prog, 1);
    hand::addBlock(prog, 0x2000, 2, TermKind::FallThrough);
    hand::addBlock(prog, 0x2008, 2, TermKind::Cond, 5, 0, 0.5);
    hand::addBlock(prog, 0x2010, 2, TermKind::Cond, 2, 0, 0.8);
    hand::addBlock(prog, 0x2018, 2, TermKind::Cond, 2, 0, 0.8);
    hand::addBlock(prog, 0x2020, 2, TermKind::Return);
    prog.driverTargets = {1};
    const Addr skip_pc = 0x200c, inner_pc = 0x2014;
    const std::uint32_t inner = 4;

    TraceWalker w(prog, 5);
    int reused = 0, dropped = 0;
    bool skipped_pending = false;
    for (int i = 0; i < 20000; ++i) {
        TraceWalker::WarmState before = w.saveWarm();
        TraceEntry e = w.next();
        TraceWalker::WarmState after = w.saveWarm();
        auto was = pendingTrips(before, inner);
        if (e.pc == skip_pc && e.taken && was) {
            // Skipping the back edge leaves its count untouched.
            EXPECT_EQ(pendingTrips(after, inner), was) << i;
            skipped_pending = true;
        } else if (e.pc == inner_pc) {
            if (!was) {
                // A fresh count is at least one trip.
                EXPECT_TRUE(e.taken) << i;
                EXPECT_TRUE(pendingTrips(after, inner)) << i;
            } else if (*was > 0) {
                EXPECT_TRUE(e.taken) << i;
                EXPECT_EQ(pendingTrips(after, inner), *was - 1) << i;
                reused += skipped_pending;
            } else {
                EXPECT_FALSE(e.taken) << i;
                EXPECT_FALSE(pendingTrips(after, inner)) << i;
            }
            skipped_pending = false;
        } else if (e.kind == isa::InstrKind::Return && was) {
            // The frame's return drops everything it left pending.
            EXPECT_TRUE(after.trips.empty()) << i;
            ++dropped;
            skipped_pending = false;
        }
    }
    EXPECT_GT(reused, 0);
    EXPECT_GT(dropped, 0);
}

TEST(Profiles, AllSevenExist)
{
    auto names = serverWorkloadNames();
    ASSERT_EQ(names.size(), 7u);
    for (const auto &n : names) {
        WorkloadProfile p = serverProfile(n);
        EXPECT_EQ(p.name, n);
        EXPECT_GT(p.numFunctions, 0u);
    }
    EXPECT_THROW(serverProfile("nope"), rt::Exception);
    auto missing = tryServerProfile("nope");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().kind, rt::ErrorKind::Workload);
    // The diagnostic must name every known profile.
    std::string rendered = missing.error().render();
    for (const auto &n : serverWorkloadNames())
        EXPECT_NE(rendered.find(n), std::string::npos) << n;
}

TEST(Profiles, FootprintOrdering)
{
    // OLTP DB A must have the largest code footprint; Web Frontend the
    // smallest (drives Fig. 1 / Fig. 16 shapes).
    Program dba = buildProgram(serverProfile("OLTP (DB A)"));
    Program wf = buildProgram(serverProfile("Web Frontend"));
    EXPECT_GT(dba.codeBytes(), 2 * wf.codeBytes());
}

TEST(Profiles, AllProfilesBuildAndWalk)
{
    for (const auto &p : allServerProfiles()) {
        Program prog = buildProgram(p);
        EXPECT_GT(prog.codeBytes(), 100u * 1024);
        TraceWalker w(prog, 1);
        for (int i = 0; i < 2000; ++i)
            w.next();
        EXPECT_EQ(w.retired(), 2000u);
    }
}

class ServerImage : public ::testing::TestWithParam<bool>
{};

TEST_P(ServerImage, MapsEveryBlockFromFirstToLast)
{
    // The image stores contiguous runs; a server program is laid out
    // function after function, so it must be one run with no hole.
    for (const auto &p : allServerProfiles(GetParam())) {
        Program prog = buildProgram(p);
        Addr first = blockNumber(prog.codeBase);
        Addr last = blockNumber(prog.codeEnd - 1);
        for (Addr bn = first; bn <= last; ++bn) {
            ASSERT_TRUE(prog.image.contains(bn << kBlockShift))
                << p.name << ": block " << std::hex << bn;
        }
        EXPECT_EQ(prog.image.numBlocks(), last - first + 1) << p.name;
    }
}

INSTANTIATE_TEST_SUITE_P(VariableLength, ServerImage,
                         ::testing::Values(false, true));

} // namespace
} // namespace dcfb::workload

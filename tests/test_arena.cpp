/**
 * @file
 * Unit tests for the per-cell bump arena (exec/arena.h): alignment,
 * reset-reuse, exhaustion fallback, the std-allocator adapter, and the
 * System-level sizing contract (DESIGN.md section 13) — a cell built
 * from estimateArenaBytes() must not overflow its slab.
 */

#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#include "exec/arena.h"
#include "sim/system.h"
#include "workload/profiles.h"

namespace dcfb::exec {
namespace {

TEST(Arena, AlignmentRespected)
{
    Arena arena(4096);
    // A misaligning 1-byte allocation first, then aligned requests.
    arena.allocate(1, 1);
    for (std::size_t align : {std::size_t{8}, std::size_t{64},
                              std::size_t{256}}) {
        void *p = arena.allocate(align, align);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
            << "align " << align;
        EXPECT_TRUE(arena.contains(p));
    }
    EXPECT_EQ(arena.stats().overflowAllocs, 0u);
}

TEST(Arena, ExhaustionFallsBackToHeap)
{
    Arena arena(128);
    void *inside = arena.allocate(96, 8);
    ASSERT_TRUE(arena.contains(inside));
    // Does not fit the remaining slab: served from the heap, counted,
    // and still perfectly usable.
    void *overflow = arena.allocate(256, 8);
    ASSERT_NE(overflow, nullptr);
    EXPECT_FALSE(arena.contains(overflow));
    std::memset(overflow, 0xab, 256);
    const Arena::Stats &s = arena.stats();
    EXPECT_EQ(s.allocs, 1u);
    EXPECT_EQ(s.overflowAllocs, 1u);
    EXPECT_EQ(s.overflowBytes, 256u);
    // Individual release of an overflow block returns it to the heap;
    // slab blocks are no-ops (the slab frees as one).
    arena.deallocate(overflow);
    arena.deallocate(inside);
    EXPECT_EQ(arena.stats().slabBytes, 128u);
}

TEST(Arena, ZeroSlabIsHeapOnly)
{
    Arena arena(0);
    void *p = arena.allocate(64, 8);
    ASSERT_NE(p, nullptr);
    EXPECT_FALSE(arena.contains(p));
    EXPECT_EQ(arena.stats().overflowAllocs, 1u);
    arena.deallocate(p);
}

TEST(Arena, ResetRewindsAndReusesTheSlab)
{
    Arena arena(1024);
    void *first = arena.allocate(512, 8);
    arena.allocate(600, 8); // overflow
    EXPECT_EQ(arena.stats().overflowAllocs, 1u);
    arena.reset();
    const Arena::Stats &s = arena.stats();
    EXPECT_EQ(s.usedBytes, 0u);
    EXPECT_EQ(s.allocs, 0u);
    EXPECT_EQ(s.overflowAllocs, 0u);
    EXPECT_EQ(s.overflowBytes, 0u);
    // The bump pointer rewound: the next allocation reuses the slab
    // from the start.
    void *again = arena.allocate(512, 8);
    EXPECT_EQ(again, first);
    EXPECT_TRUE(arena.contains(again));
}

TEST(ArenaAlloc, NullArenaBehavesAsHeap)
{
    ArenaVector<int> v{ArenaAlloc<int>(nullptr)};
    for (int i = 0; i < 1000; ++i)
        v.push_back(i);
    EXPECT_EQ(v.size(), 1000u);
    EXPECT_EQ(v[999], 999);
}

TEST(ArenaAlloc, VectorStorageLandsInTheSlab)
{
    Arena arena(64 * 1024);
    ArenaVector<std::uint64_t> v{ArenaAlloc<std::uint64_t>(&arena)};
    v.resize(1024, 7);
    EXPECT_TRUE(arena.contains(v.data()));
    EXPECT_EQ(v[1023], 7u);
    // Growth beyond the slab falls back to the heap without losing
    // contents.
    v.resize(32 * 1024, 9);
    EXPECT_EQ(v[0], 7u);
    EXPECT_EQ(v[32 * 1024 - 1], 9u);
}

/** The sizing contract: a full System built from estimateArenaBytes()
 *  places all of its construction-time tables inside the slab. */
TEST(Arena, SystemEstimateCoversConstruction)
{
    auto profile = workload::serverProfile("Web (Apache)");
    profile.numFunctions = 24;
    profile.dataFootprint = 1ull << 20;
    for (auto preset : {sim::Preset::Baseline, sim::Preset::SN4LDisBtb,
                        sim::Preset::Confluence, sim::Preset::Shotgun}) {
        sim::SystemConfig cfg = sim::makeConfig(profile, preset);
        cfg.functionalWarmInstrs = 0;
        sim::System system(cfg);
        const Arena::Stats &s = system.arena.stats();
        EXPECT_EQ(s.overflowAllocs, 0u)
            << sim::presetName(preset) << ": " << s.overflowBytes
            << " bytes overflowed a " << s.slabBytes << "-byte slab";
        EXPECT_GT(s.usedBytes, 0u);
        EXPECT_LE(s.usedBytes, s.slabBytes);
    }
}

} // namespace
} // namespace dcfb::exec

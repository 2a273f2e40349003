/**
 * @file
 * Tests for the frontend substrate: TAGE learning behaviour, RAS,
 * conventional/basic-block/Shotgun BTBs, FTQ, and the backend model.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/backend.h"
#include "frontend/btb.h"
#include "frontend/ftq.h"
#include "frontend/ras.h"
#include "frontend/shotgun_btb.h"
#include "frontend/tage.h"

namespace dcfb::frontend {
namespace {

TEST(Tage, LearnsAlwaysTaken)
{
    Tage tage;
    Addr pc = 0x40010;
    for (int i = 0; i < 64; ++i) {
        tage.predict(pc);
        tage.update(pc, true);
    }
    EXPECT_TRUE(tage.predict(pc));
}

TEST(Tage, LearnsAlwaysNotTaken)
{
    Tage tage;
    Addr pc = 0x40020;
    for (int i = 0; i < 64; ++i) {
        tage.predict(pc);
        tage.update(pc, false);
    }
    EXPECT_FALSE(tage.predict(pc));
}

TEST(Tage, LearnsAlternatingViaHistory)
{
    // A strict alternation is trivially history-predictable: after
    // warmup TAGE must do far better than 50 %.
    Tage tage;
    Addr pc = 0x40030;
    bool outcome = false;
    for (int i = 0; i < 512; ++i) {
        tage.predict(pc);
        tage.update(pc, outcome);
        outcome = !outcome;
    }
    int correct = 0;
    for (int i = 0; i < 200; ++i) {
        bool p = tage.predict(pc);
        correct += p == outcome;
        tage.update(pc, outcome);
        outcome = !outcome;
    }
    EXPECT_GT(correct, 180);
}

TEST(Tage, LearnsShortPeriodicPattern)
{
    Tage tage;
    Addr pc = 0x40040;
    auto pattern = [](int i) { return i % 5 != 0; }; // TTTTN repeating
    for (int i = 0; i < 2000; ++i) {
        tage.predict(pc);
        tage.update(pc, pattern(i));
    }
    int correct = 0;
    for (int i = 2000; i < 2400; ++i) {
        correct += tage.predict(pc) == pattern(i);
        tage.update(pc, pattern(i));
    }
    EXPECT_GT(correct, 360); // > 90 %
}

TEST(Tage, BiasedBranchAccuracyBeatsBias)
{
    // 90 %-taken random branch: accuracy should approach 90 %.
    Tage tage;
    Rng rng(5);
    Addr pc = 0x40050;
    int correct = 0, n = 4000;
    for (int i = 0; i < n; ++i) {
        bool actual = rng.chance(0.9);
        correct += tage.predict(pc) == actual;
        tage.update(pc, actual);
    }
    EXPECT_GT(correct, n * 80 / 100);
}

TEST(Tage, TracksManyBranches)
{
    Tage tage;
    // 64 branches with alternating fixed biases.
    for (int round = 0; round < 40; ++round) {
        for (int b = 0; b < 64; ++b) {
            Addr pc = 0x50000 + Addr{static_cast<unsigned>(b)} * 8;
            bool dir = (b & 1) != 0;
            tage.predict(pc);
            tage.update(pc, dir);
        }
    }
    int correct = 0;
    for (int b = 0; b < 64; ++b) {
        Addr pc = 0x50000 + Addr{static_cast<unsigned>(b)} * 8;
        correct += tage.predict(pc) == ((b & 1) != 0);
        tage.update(pc, (b & 1) != 0);
    }
    EXPECT_GT(correct, 58);
}

TEST(Ras, PushPopLifo)
{
    ReturnAddressStack ras(4);
    ras.push(0x100);
    ras.push(0x200);
    EXPECT_EQ(ras.pop(), 0x200u);
    EXPECT_EQ(ras.pop(), 0x100u);
    EXPECT_EQ(ras.pop(), kInvalidAddr);
}

TEST(Ras, OverflowClobbersOldest)
{
    ReturnAddressStack ras(2);
    ras.push(0x100);
    ras.push(0x200);
    ras.push(0x300); // clobbers 0x100
    EXPECT_EQ(ras.pop(), 0x300u);
    EXPECT_EQ(ras.pop(), 0x200u);
    // 0x100 was overwritten; the stack wrapped.
    EXPECT_EQ(ras.size(), 0u);
}

TEST(Ras, PeekDoesNotPop)
{
    ReturnAddressStack ras(4);
    ras.push(0xabc);
    EXPECT_EQ(ras.peek(), 0xabcu);
    EXPECT_EQ(ras.size(), 1u);
}

TEST(Btb, MissThenHitAfterUpdate)
{
    Btb btb(2048, 4);
    EXPECT_EQ(btb.lookup(0x40000), nullptr);
    btb.update(0x40000, 0x41000, isa::InstrKind::Jump);
    const BtbEntry *e = btb.lookup(0x40000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->target, 0x41000u);
    EXPECT_EQ(e->kind, isa::InstrKind::Jump);
    EXPECT_EQ(btb.stats().get("btb_misses"), 1u);
    EXPECT_EQ(btb.stats().get("btb_hits"), 1u);
}

TEST(Btb, CapacityEviction)
{
    Btb btb(64, 4); // 16 sets
    // Fill one set (same set index, different tags) beyond capacity.
    for (unsigned i = 0; i < 8; ++i)
        btb.update(0x40000 + Addr{i} * 64 * 4, 0x1000, isa::InstrKind::Call);
    unsigned present = 0;
    for (unsigned i = 0; i < 8; ++i)
        present += btb.contains(0x40000 + Addr{i} * 64 * 4);
    EXPECT_LE(present, 4u);
}

TEST(Btb, DistinctInstructionAddressesDistinctEntries)
{
    Btb btb(2048, 4);
    btb.update(0x40000, 0x1, isa::InstrKind::Jump);
    btb.update(0x40004, 0x2, isa::InstrKind::Call);
    EXPECT_EQ(btb.lookup(0x40000)->target, 0x1u);
    EXPECT_EQ(btb.lookup(0x40004)->target, 0x2u);
}

TEST(ShotgunBtb, UBtbFootprintLifecycle)
{
    ShotgunBtb sg;
    // Retired-stream install: entry present, footprint valid once set.
    auto &e = sg.updateU(0x40000, 0x50000, isa::InstrKind::Call,
                         /*from_prefill=*/false);
    e.callFootprint = 0b101;
    e.callFpValid = true;
    UBtbEntry *hit = sg.lookupU(0x40000);
    ASSERT_NE(hit, nullptr);
    EXPECT_TRUE(hit->callFpValid);
    EXPECT_EQ(sg.stats().get("ubtb_footprint_misses"), 0u);
}

TEST(ShotgunBtb, PrefillRestoresTargetNotFootprint)
{
    ShotgunBtb sg;
    auto &e = sg.updateU(0x40000, 0x50000, isa::InstrKind::Jump,
                         /*from_prefill=*/true);
    EXPECT_FALSE(e.callFpValid);
    sg.lookupU(0x40000);
    // A lookup that hits but has no footprint is a footprint miss
    // (Fig. 1's metric).
    EXPECT_EQ(sg.stats().get("ubtb_hits"), 1u);
    EXPECT_EQ(sg.stats().get("ubtb_footprint_misses"), 1u);
}

TEST(ShotgunBtb, UBtbMissCountsFootprintMiss)
{
    ShotgunBtb sg;
    EXPECT_EQ(sg.lookupU(0x123456 & ~3ull), nullptr);
    EXPECT_EQ(sg.stats().get("ubtb_misses"), 1u);
    EXPECT_EQ(sg.stats().get("ubtb_footprint_misses"), 1u);
}

TEST(ShotgunBtb, CBtbAndRib)
{
    ShotgunBtb sg;
    EXPECT_EQ(sg.lookupC(0x40010), nullptr);
    sg.updateC(0x40010, 0x40400);
    ASSERT_NE(sg.lookupC(0x40010), nullptr);
    EXPECT_EQ(sg.lookupC(0x40010)->target, 0x40400u);

    EXPECT_FALSE(sg.lookupRib(0x40020));
    sg.updateRib(0x40020);
    EXPECT_TRUE(sg.lookupRib(0x40020));
}

TEST(ShotgunBtb, CBtbIsTiny)
{
    ShotgunBtb sg;
    // 128-entry C-BTB: 256 distinct conditionals cannot all fit.
    for (unsigned i = 0; i < 256; ++i)
        sg.updateC(0x40000 + Addr{i} * 4, 0x1000);
    unsigned present = 0;
    for (unsigned i = 0; i < 256; ++i)
        present += sg.containsC(0x40000 + Addr{i} * 4);
    EXPECT_LE(present, 128u);
}

TEST(Ftq, BoundedTo32)
{
    Ftq ftq(32);
    for (std::uint64_t i = 0; i < 32; ++i)
        EXPECT_TRUE(ftq.push(FtqEntry{i, i + 1, 0x40000}));
    EXPECT_FALSE(ftq.push(FtqEntry{99, 100, 0}));
    EXPECT_EQ(ftq.front().traceBegin, 0u);
}

} // namespace
} // namespace dcfb::frontend

namespace dcfb::core {
namespace {

TEST(Backend, DispatchWidthLimit)
{
    Backend be;
    be.beginCycle(0);
    int dispatched = 0;
    while (be.canDispatch()) {
        be.dispatch(isa::InstrKind::Alu, 0, 0);
        ++dispatched;
    }
    EXPECT_EQ(dispatched, 3);
}

TEST(Backend, RetiresInOrderAtWidth)
{
    Backend be;
    Cycle t = 0;
    // Fill 9 instructions over 3 cycles.
    for (int c = 0; c < 3; ++c) {
        be.beginCycle(t);
        while (be.canDispatch())
            be.dispatch(isa::InstrKind::Alu, t, 0);
        ++t;
    }
    EXPECT_EQ(be.robOccupancy(), 9u);
    // Let the pipeline drain: 12 + 1 latency.
    for (; t < 40; ++t)
        be.beginCycle(t);
    EXPECT_EQ(be.retired(), 9u);
    EXPECT_TRUE(be.robEmpty());
}

TEST(Backend, RobFillsUnderLongLoad)
{
    Backend be;
    be.beginCycle(0);
    be.dispatch(isa::InstrKind::Load, 0, 100000); // long-latency load
    Cycle t = 1;
    // Keep dispatching ALUs; the ROB must clog at 128 because the load
    // retires first in order.
    while (t < 2000) {
        be.beginCycle(t);
        while (be.canDispatch())
            be.dispatch(isa::InstrKind::Alu, t, 0);
        ++t;
    }
    EXPECT_EQ(be.robOccupancy(), 128u);
    EXPECT_EQ(be.retired(), 0u);
    EXPECT_GT(be.stats().get("rob_full_cycles"), 0u);
}

TEST(Backend, LoadLatencyDelaysRetire)
{
    Backend be;
    be.beginCycle(0);
    be.dispatch(isa::InstrKind::Load, 0, 50);
    for (Cycle t = 1; t <= 49; ++t) {
        be.beginCycle(t);
        EXPECT_EQ(be.retired(), 0u);
    }
    be.beginCycle(50);
    EXPECT_EQ(be.retired(), 1u);
}

} // namespace
} // namespace dcfb::core

/**
 * @file
 * Tests for the runtime-integrity layer: structured errors, Expected,
 * the --inject spec parser, the invariant registry, the forward-progress
 * watchdog, and fuzz-style negative tests that feed the trace walker
 * malformed control-flow graphs and expect typed diagnostics -- never
 * out-of-bounds indexing or a silent wrong walk.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "rt/error.h"
#include "rt/faults.h"
#include "rt/invariants.h"
#include "rt/watchdog.h"
#include "workload/cfg.h"
#include "workload/trace.h"

#include "hand_cfg.h"

namespace dcfb::rt {
namespace {

TEST(RtError, RenderCarriesKindMessageAndContext)
{
    Error e = Error(ErrorKind::Workload, "something broke")
                  .with("where", "here")
                  .with("count", std::uint64_t{42});
    std::string r = e.render();
    EXPECT_NE(r.find("workload"), std::string::npos);
    EXPECT_NE(r.find("something broke"), std::string::npos);
    EXPECT_NE(r.find("where"), std::string::npos);
    EXPECT_NE(r.find("here"), std::string::npos);
    EXPECT_NE(r.find("42"), std::string::npos);
    // Context renders in insertion order.
    EXPECT_LT(r.find("where"), r.find("count"));
}

TEST(RtError, KindNamesAreDistinct)
{
    EXPECT_STRNE(errorKindName(ErrorKind::Config),
                 errorKindName(ErrorKind::Workload));
    EXPECT_STRNE(errorKindName(ErrorKind::Invariant),
                 errorKindName(ErrorKind::Watchdog));
}

TEST(RtExpected, ValueAndErrorPaths)
{
    Expected<int> good(7);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 7);

    Expected<int> bad(Error(ErrorKind::Config, "nope"));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().kind, ErrorKind::Config);
    EXPECT_THROW(bad.value(), Exception);

    Expected<void> fine;
    EXPECT_TRUE(fine.ok());
    Expected<void> failed{Error(ErrorKind::Invariant, "broken")};
    EXPECT_FALSE(failed.ok());
    EXPECT_THROW(failed.value(), Exception);
}

TEST(RtExpected, ExceptionRendersTheError)
{
    try {
        raise(Error(ErrorKind::Watchdog, "no forward progress")
                  .with("window", std::uint64_t{50000}));
        FAIL() << "raise() returned";
    } catch (const Exception &ex) {
        EXPECT_EQ(ex.error().kind, ErrorKind::Watchdog);
        EXPECT_NE(std::string(ex.what()).find("no forward progress"),
                  std::string::npos);
        EXPECT_NE(std::string(ex.what()).find("50000"), std::string::npos);
    }
}

TEST(RtFaultPlan, ParsesEveryKindAndKey)
{
    auto drop = parseFaultPlan("drop");
    ASSERT_TRUE(drop.ok());
    EXPECT_EQ(drop.value().kind, FaultKind::Drop);
    EXPECT_TRUE(drop.value().active());

    auto delay = parseFaultPlan("delay:cycles=300,rate=0.5,seed=9");
    ASSERT_TRUE(delay.ok());
    EXPECT_EQ(delay.value().kind, FaultKind::Delay);
    EXPECT_EQ(delay.value().delayCycles, 300u);
    EXPECT_DOUBLE_EQ(delay.value().rate, 0.5);
    EXPECT_EQ(delay.value().seed, 9u);

    auto corrupt = parseFaultPlan("corrupt:rate=1");
    ASSERT_TRUE(corrupt.ok());
    EXPECT_EQ(corrupt.value().kind, FaultKind::Corrupt);

    auto bp = parseFaultPlan("backpressure");
    ASSERT_TRUE(bp.ok());
    EXPECT_EQ(bp.value().kind, FaultKind::Backpressure);

    auto off = parseFaultPlan("none");
    ASSERT_TRUE(off.ok());
    EXPECT_FALSE(off.value().active());
}

TEST(RtFaultPlan, SpecRoundTrips)
{
    for (const char *spec :
         {"drop", "delay:cycles=300", "corrupt:rate=0.5,seed=3",
          "backpressure:rate=0.75", "none"}) {
        auto plan = parseFaultPlan(spec);
        ASSERT_TRUE(plan.ok()) << spec;
        auto again = parseFaultPlan(faultPlanSpec(plan.value()));
        ASSERT_TRUE(again.ok()) << faultPlanSpec(plan.value());
        EXPECT_EQ(again.value().kind, plan.value().kind);
        EXPECT_DOUBLE_EQ(again.value().rate, plan.value().rate);
        EXPECT_EQ(again.value().delayCycles, plan.value().delayCycles);
        EXPECT_EQ(again.value().seed, plan.value().seed);
    }
}

TEST(RtFaultPlan, RejectsMalformedSpecs)
{
    for (const char *spec :
         {"", "bogus", "drop:rate=1.5", "drop:rate=-0.1", "drop:rate=abc",
          "delay:cycles=0", "delay:cycles=xyz", "drop:frobnicate=1",
          "drop:rate=", "drop:", ":rate=0.5"}) {
        auto plan = parseFaultPlan(spec);
        ASSERT_FALSE(plan.ok()) << spec;
        EXPECT_EQ(plan.error().kind, ErrorKind::Fault) << spec;
        // The diagnostic teaches the accepted syntax.
        EXPECT_NE(plan.error().render().find("drop"), std::string::npos)
            << spec;
    }
}

TEST(RtFaultPlan, KindIsolationKeepsDrawSequencesIndependent)
{
    // A Corrupt-only injector must never answer a Drop hook, and the
    // answer must not consume randomness that shifts later draws.
    FaultPlan plan;
    plan.kind = FaultKind::Corrupt;
    plan.rate = 1.0;
    FaultInjector inj(plan, 1);
    Addr first = inj.corruptTarget(0x10000);
    EXPECT_FALSE(inj.dropPrefetchResponse());
    EXPECT_EQ(inj.responseDelay(), 0u);
    EXPECT_FALSE(inj.forceBackpressure());

    FaultInjector twin(plan, 1);
    EXPECT_EQ(twin.corruptTarget(0x10000), first);
}

TEST(RtFaultPlan, CorruptedTargetsStayBlockAlignedAndWrong)
{
    FaultPlan plan;
    plan.kind = FaultKind::Corrupt;
    plan.rate = 1.0;
    FaultInjector inj(plan, 7);
    for (int i = 0; i < 256; ++i) {
        Addr t = 0x40000 + static_cast<Addr>(i) * kBlockBytes;
        Addr c = inj.corruptTarget(t);
        EXPECT_EQ(c % kBlockBytes, 0u);
        EXPECT_NE(c, blockAlign(t));
    }
    EXPECT_EQ(inj.stats().get("faults_corrupted"), 256u);
}

TEST(RtInvariants, SweepReportsOnlyViolations)
{
    InvariantRegistry reg;
    reg.add("always.holds", [](Cycle) { return std::nullopt; });
    reg.add("always.fails",
            [](Cycle now) -> std::optional<std::string> {
                return "broke at cycle " + std::to_string(now);
            });
    auto violations = reg.sweep(123);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].invariant, "always.fails");
    EXPECT_NE(violations[0].detail.find("123"), std::string::npos);

    auto checked = reg.check(123);
    ASSERT_FALSE(checked.ok());
    EXPECT_EQ(checked.error().kind, ErrorKind::Invariant);
    EXPECT_NE(checked.error().render().find("always.fails"),
              std::string::npos);
}

TEST(RtInvariants, DisabledRegistrySweepsNothing)
{
    InvariantRegistry reg;
    int calls = 0;
    reg.add("counts.calls",
            [&calls](Cycle) -> std::optional<std::string> {
                ++calls;
                return "always fails";
            });
    reg.setEnabled(false);
    EXPECT_TRUE(reg.sweep(1).empty());
    EXPECT_TRUE(reg.check(1).ok());
    EXPECT_EQ(calls, 0);
}

TEST(RtInvariants, ZeroActivityGateSkipsTheCheck)
{
    InvariantRegistry reg;
    std::size_t active = 0;
    int walks = 0;
    reg.add("gated.walk", [&active] { return active; },
            [&walks](Cycle) -> std::optional<std::string> {
                ++walks;
                return std::nullopt;
            });

    // Idle state: the gate answers 0, the walk must never run.
    for (Cycle c = 1; c <= 5; ++c)
        EXPECT_TRUE(reg.sweep(c).empty());
    EXPECT_EQ(walks, 0);
    EXPECT_EQ(reg.checksRun(), 0u);
    EXPECT_EQ(reg.checksSkipped(), 5u);

    // Entries appear: the same registration runs again.
    active = 3;
    EXPECT_TRUE(reg.sweep(6).empty());
    EXPECT_EQ(walks, 1);
    EXPECT_EQ(reg.checksRun(), 1u);

    // Drained again: back to skipping.
    active = 0;
    EXPECT_TRUE(reg.sweep(7).empty());
    EXPECT_EQ(walks, 1);
    EXPECT_EQ(reg.checksSkipped(), 6u);
}

TEST(RtInvariants, GatedViolationStillReportsWhenActive)
{
    InvariantRegistry reg;
    std::size_t active = 0;
    reg.add("gated.fails", [&active] { return active; },
            [](Cycle) -> std::optional<std::string> {
                return "bad entry";
            });
    EXPECT_TRUE(reg.sweep(1).empty()); // masked while idle
    active = 1;
    auto violations = reg.sweep(2);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].invariant, "gated.fails");
}

TEST(RtInvariants, SweepCostIsActiveEntriesNotCapacity)
{
    // The contract the simulator relies on: a sweep over idle machine
    // state costs one gate probe per gated check -- no structure walks.
    // Pin it by counting both probes and walks over a mixed registry.
    InvariantRegistry reg;
    int probes = 0, walks = 0;
    std::size_t active = 0;
    for (int i = 0; i < 8; ++i) {
        reg.add("gated." + std::to_string(i),
                [&probes, &active] {
                    ++probes;
                    return active;
                },
                [&walks](Cycle) -> std::optional<std::string> {
                    ++walks;
                    return std::nullopt;
                });
    }
    reg.add("ungated", [&walks](Cycle) -> std::optional<std::string> {
        ++walks;
        return std::nullopt;
    });

    reg.sweep(1);
    EXPECT_EQ(probes, 8);
    EXPECT_EQ(walks, 1); // only the ungated check walked

    active = 2;
    reg.sweep(2);
    EXPECT_EQ(probes, 16);
    EXPECT_EQ(walks, 10); // all 8 gated walks + the ungated one
}

TEST(RtWatchdog, HealthyProgressNeverTrips)
{
    Watchdog dog(100);
    std::uint64_t retired = 0, fetched = 0;
    for (Cycle now = 0; now < 2000; now += 50) {
        retired += 10;
        fetched += 20;
        EXPECT_FALSE(dog.observe(now, retired, fetched).has_value());
    }
}

TEST(RtWatchdog, NoRetireTripsAfterWindow)
{
    Watchdog dog(100);
    dog.observe(0, 5, 5); // arms the baseline
    // Fetch advances, retire freezes: a wedged backend.
    EXPECT_FALSE(dog.observe(50, 5, 10).has_value());
    EXPECT_FALSE(dog.observe(100, 5, 15).has_value());
    auto err = dog.observe(150, 5, 20);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->kind, ErrorKind::Watchdog);
    EXPECT_NE(err->render().find("retire"), std::string::npos);
}

TEST(RtWatchdog, RearmResetsTheBaseline)
{
    Watchdog dog(100);
    dog.observe(0, 5, 5);
    EXPECT_FALSE(dog.observe(80, 5, 5).has_value());
    dog.rearm(90, 5, 5);
    // The old frozen window must not count after a rearm.
    EXPECT_FALSE(dog.observe(150, 5, 5).has_value());
    EXPECT_TRUE(dog.observe(200, 5, 5).has_value());
}

// ---------------------------------------------------------------------------
// Fuzz-style negative tests: hand-build malformed CFGs and expect the
// walker to die with a typed Workload error, never UB.

using workload::Program;
using workload::TermKind;
using workload::TraceWalker;
using workload::hand::addBlock;
using workload::hand::addFunction;

/** A one-function program (the driver) whose indirect calls go to it. */
Program
driverOnly()
{
    Program prog;
    addFunction(prog);
    prog.driverTargets = {0};
    return prog;
}

TEST(RtTraceGuards, EmptyProgramIsRejectedAtConstruction)
{
    Program prog;
    try {
        TraceWalker w(prog, 1);
        FAIL() << "empty program accepted";
    } catch (const Exception &ex) {
        EXPECT_EQ(ex.error().kind, ErrorKind::Workload);
    }
}

TEST(RtTraceGuards, FallThroughOffTheEndRaises)
{
    // One block, FallThrough terminator: nowhere to fall into.
    Program prog = driverOnly();
    addBlock(prog, 0x1000, 4, TermKind::FallThrough);
    TraceWalker w(prog, 1);
    for (int i = 0; i < 3; ++i)
        w.next();
    try {
        w.next();
        FAIL() << "walked past the last block";
    } catch (const Exception &ex) {
        EXPECT_EQ(ex.error().kind, ErrorKind::Workload);
        EXPECT_NE(ex.error().render().find("fall-through"),
                  std::string::npos);
    }
}

TEST(RtTraceGuards, OutOfRangeBranchTargetRaises)
{
    Program prog = driverOnly();
    addBlock(prog, 0x1000, 2, TermKind::Jump, 99);
    addBlock(prog, 0x2000, 2, TermKind::Jump, 0);
    TraceWalker w(prog, 1);
    w.next();
    EXPECT_THROW(w.next(), Exception);
}

TEST(RtTraceGuards, CallToMissingFunctionRaises)
{
    Program prog = driverOnly();
    addBlock(prog, 0x1000, 2, TermKind::Call, 0, 7);
    addBlock(prog, 0x2000, 2, TermKind::Jump, 0);
    TraceWalker w(prog, 1);
    w.next();
    try {
        w.next();
        FAIL() << "called a function that does not exist";
    } catch (const Exception &ex) {
        EXPECT_EQ(ex.error().kind, ErrorKind::Workload);
        EXPECT_NE(ex.error().render().find("callee"), std::string::npos);
    }
}

TEST(RtTraceGuards, SelfReferentialCallGraphHitsTheDepthBound)
{
    // The driver calls itself: a cycle the generator's strictly
    // increasing call-level rule forbids.  The walk must terminate with
    // a typed error instead of growing the stack until OOM.
    Program prog = driverOnly();
    addBlock(prog, 0x1000, 2, TermKind::Call, 0, 0);
    addBlock(prog, 0x2000, 2, TermKind::Jump, 0);
    TraceWalker w(prog, 1);
    try {
        for (int i = 0; i < (1 << 20); ++i)
            w.next();
        FAIL() << "self-referential call graph never tripped";
    } catch (const Exception &ex) {
        EXPECT_EQ(ex.error().kind, ErrorKind::Workload);
        EXPECT_NE(ex.error().render().find("depth"), std::string::npos);
    }
}

TEST(RtTraceGuards, DriverReturnRaises)
{
    Program prog = driverOnly();
    addBlock(prog, 0x1000, 2, TermKind::Return);
    TraceWalker w(prog, 1);
    w.next();
    try {
        w.next();
        FAIL() << "driver returned";
    } catch (const Exception &ex) {
        EXPECT_EQ(ex.error().kind, ErrorKind::Workload);
        EXPECT_NE(ex.error().render().find("driver"), std::string::npos);
    }
}

TEST(RtTraceGuards, FuzzedCorruptionsNeverCrash)
{
    // Start from a real generated program, corrupt one structural field
    // per trial, and require the walk to either keep producing entries
    // or die with a typed Workload error -- nothing else.  Every field
    // lives in the one block array, so no derived copy can go stale.
    workload::WorkloadProfile profile;
    profile.name = "fuzz";
    profile.numFunctions = 16;
    profile.seed = 42;
    Rng rng(2026);
    for (int trial = 0; trial < 40; ++trial) {
        Program prog = workload::buildProgram(profile);
        const auto &fn = prog.functions[rng.below(prog.functions.size())];
        auto &bb = prog.blocks[fn.firstBlock + rng.below(fn.numBlocks)];
        switch (trial % 4) {
          case 0: // out-of-range branch target
            bb.term = TermKind::Jump;
            bb.targetBlock = 0xdeadu;
            break;
          case 1: // call into the void
            bb.term = TermKind::Call;
            bb.callee =
                static_cast<std::uint32_t>(prog.functions.size()) + 9;
            break;
          case 2: // truncate: make the last block fall off the end
            prog.blocks[fn.endBlock() - 1].term = TermKind::FallThrough;
            break;
          case 3: // driver-level return
            bb.term = TermKind::Return;
            break;
        }
        TraceWalker w(prog, 1);
        try {
            for (int i = 0; i < 200000; ++i)
                w.next();
            // Walks that never visit the corrupted block are fine.
        } catch (const Exception &ex) {
            EXPECT_EQ(ex.error().kind, ErrorKind::Workload) << trial;
        }
    }
}

} // namespace
} // namespace dcfb::rt

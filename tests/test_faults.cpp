/**
 * @file
 * Fault-injection suite: under every fault kind the simulation must
 * degrade *gracefully* -- the run completes, IPC drops, stat identities
 * stay conserved, and nothing crashes or hangs.  Also covers the
 * end-to-end failure path: invariant violations and watchdog trips
 * abort trySimulate() with a typed error carrying a parseable
 * "dcfb-snapshot-v1" machine-state snapshot.
 *
 * Suite names start with "Fault" so CI can run them as a separate ctest
 * entry (dcfb_fault_tests) with its own timeout.
 */

#include <gtest/gtest.h>

#include "obs/json.h"
#include "rt/faults.h"
#include "sim/simulator.h"
#include "workload/profiles.h"

namespace dcfb::sim {
namespace {

RunWindows
fastWindows()
{
    return RunWindows{40000, 60000};
}

SystemConfig
faultConfig(Preset preset, const std::string &spec)
{
    SystemConfig cfg =
        makeConfig(workload::serverProfile("Web (Apache)"), preset);
    cfg.functionalWarmInstrs = 400000;
    if (!spec.empty())
        cfg.faults = rt::parseFaultPlan(spec).value();
    else
        cfg.faults = rt::FaultPlan{};
    return cfg;
}

/** One cached clean run to compare every fault kind against. */
const RunResult &
cleanRun()
{
    static RunResult res =
        simulate(faultConfig(Preset::SN4LDisBtb, ""), fastWindows());
    return res;
}

/** The stat identities every run must keep, faulted or not. */
void
expectConserved(const RunResult &res)
{
    EXPECT_EQ(res.stat("l1i.l1i_hits") + res.stat("l1i.l1i_misses"),
              res.stat("l1i.l1i_accesses"));
    EXPECT_EQ(res.stat("l1i.l1i_seq_misses") +
                  res.stat("l1i.l1i_disc_misses"),
              res.stat("l1i.l1i_misses"));
    EXPECT_GT(res.instructions, 1000u);
    EXPECT_GT(res.ipc(), 0.05);
}

TEST(FaultInjection, DropDegradesGracefully)
{
    auto res = trySimulate(faultConfig(Preset::SN4LDisBtb,
                                       "drop:rate=0.5,seed=2"),
                           fastWindows());
    ASSERT_TRUE(res.ok()) << res.error().message;
    const RunResult &r = res.value();
    expectConserved(r);
    EXPECT_GT(r.stat("rt.faults_dropped"), 0u);
    // Dropped prefetch fills surface as extra demand misses later.
    EXPECT_GE(r.stat("l1i.l1i_misses"), cleanRun().stat("l1i.l1i_misses"));
    EXPECT_LT(r.ipc(), cleanRun().ipc());
}

TEST(FaultInjection, DelayDegradesGracefully)
{
    auto res = trySimulate(faultConfig(Preset::SN4LDisBtb,
                                       "delay:cycles=300,rate=0.5,seed=2"),
                           fastWindows());
    ASSERT_TRUE(res.ok()) << res.error().message;
    const RunResult &r = res.value();
    expectConserved(r);
    EXPECT_GT(r.stat("rt.faults_delayed"), 0u);
    EXPECT_EQ(r.stat("rt.faults_delay_cycles"),
              r.stat("rt.faults_delayed") * 300);
    EXPECT_LT(r.ipc(), cleanRun().ipc());
}

TEST(FaultInjection, CorruptDegradesGracefully)
{
    auto res = trySimulate(faultConfig(Preset::SN4LDisBtb,
                                       "corrupt:rate=0.5,seed=2"),
                           fastWindows());
    ASSERT_TRUE(res.ok()) << res.error().message;
    const RunResult &r = res.value();
    expectConserved(r);
    EXPECT_GT(r.stat("rt.faults_corrupted"), 0u);
    // Lying predecode output poisons prefetches; it must never help.
    EXPECT_LE(r.ipc(), cleanRun().ipc() * 1.005);
}

TEST(FaultInjection, BackpressureDegradesGracefully)
{
    auto res = trySimulate(faultConfig(Preset::SN4LDisBtb,
                                       "backpressure:rate=0.75,seed=2"),
                           fastWindows());
    ASSERT_TRUE(res.ok()) << res.error().message;
    const RunResult &r = res.value();
    expectConserved(r);
    EXPECT_GT(r.stat("rt.faults_backpressure"), 0u);
    EXPECT_LE(r.ipc(), cleanRun().ipc() * 1.005);
}

TEST(FaultInjection, ReplayIsBitForBitDeterministic)
{
    auto cfg = faultConfig(Preset::SN4LDisBtb, "drop:rate=0.5,seed=2");
    auto a = simulate(cfg, fastWindows());
    auto b = simulate(cfg, fastWindows());
    EXPECT_EQ(a, b);
}

TEST(FaultInjection, InjectorSeedChangesTheFaultPattern)
{
    auto a = simulate(faultConfig(Preset::SN4LDisBtb,
                                  "drop:rate=0.5,seed=1"),
                      fastWindows());
    auto b = simulate(faultConfig(Preset::SN4LDisBtb,
                                  "drop:rate=0.5,seed=2"),
                      fastWindows());
    EXPECT_NE(a, b);
}

TEST(FaultInjection, InactivePlansAreBitIdenticalToOff)
{
    // rate=0 and kind=none must not even register fault counters, so
    // the whole RunResult compares equal to a run without any plan.
    auto off = simulate(faultConfig(Preset::SN4LDisBtb, ""),
                        fastWindows());
    auto zero = simulate(faultConfig(Preset::SN4LDisBtb, "drop:rate=0"),
                         fastWindows());
    auto none = simulate(faultConfig(Preset::SN4LDisBtb, "none"),
                         fastWindows());
    EXPECT_EQ(off, zero);
    EXPECT_EQ(off, none);
    EXPECT_EQ(off.stats.count("rt.faults_dropped"), 0u);
}

TEST(FaultInjection, FaultCountersOnlyExistUnderInjection)
{
    auto faulted = simulate(faultConfig(Preset::SN4LDisBtb,
                                        "drop:rate=0.5,seed=2"),
                            fastWindows());
    EXPECT_EQ(faulted.stats.count("rt.faults_dropped"), 1u);
    EXPECT_EQ(cleanRun().stats.count("rt.faults_dropped"), 0u);
}

TEST(FaultInjection, DecoupledEnginesSurviveFaults)
{
    // Shotgun exercises the FTQ invariants while faults hit the shared
    // L1i path underneath it.
    auto res = trySimulate(
        faultConfig(Preset::Shotgun, "delay:cycles=200,rate=0.25,seed=3"),
        fastWindows());
    ASSERT_TRUE(res.ok()) << res.error().render();
    EXPECT_GT(res.value().ipc(), 0.05);
    EXPECT_GT(res.value().stat("rt.faults_delayed"), 0u);
}

TEST(FaultInjection, CompetitorPresetsSurviveEveryFaultKind)
{
    // FDIP's prefetch path and the micro BTB's promote path both ride
    // the faulted L1i/memory machinery; every fault kind must degrade
    // them gracefully, never wedge them.
    const char *specs[] = {
        "drop:rate=0.5,seed=2",
        "delay:cycles=200,rate=0.25,seed=3",
        "corrupt:rate=0.5,seed=2",
    };
    for (Preset preset : {Preset::Fdip, Preset::MicroBtb}) {
        for (const char *spec : specs) {
            auto res =
                trySimulate(faultConfig(preset, spec), fastWindows());
            ASSERT_TRUE(res.ok())
                << presetName(preset) << "/" << spec << ": "
                << res.error().render();
            expectConserved(res.value());
        }
    }
}

TEST(FaultInjection, CompetitorPresetsOffParityIsBitIdentical)
{
    // The injection machinery must be invisible when inert: for the new
    // presets too, no plan, an explicit "none" and a zero-rate plan all
    // produce the same RunResult bytes.
    for (Preset preset : {Preset::Fdip, Preset::MicroBtb}) {
        auto off = simulate(faultConfig(preset, ""), fastWindows());
        auto zero =
            simulate(faultConfig(preset, "drop:rate=0"), fastWindows());
        auto none = simulate(faultConfig(preset, "none"), fastWindows());
        EXPECT_EQ(off, zero) << presetName(preset);
        EXPECT_EQ(off, none) << presetName(preset);
        EXPECT_EQ(off.stats.count("rt.faults_dropped"), 0u)
            << presetName(preset);
    }
}

/** Find @p key in an error's context; nullptr when absent. */
const std::string *
contextValue(const rt::Error &err, const std::string &key)
{
    for (const auto &kv : err.context) {
        if (kv.first == key)
            return &kv.second;
    }
    return nullptr;
}

TEST(FaultIntegrity, InvariantViolationAbortsWithSnapshot)
{
    // A 1-cycle miss-resolution bound turns every in-flight miss into a
    // "leak": the sweep must abort the run with a typed error.
    auto cfg = faultConfig(Preset::Baseline, "");
    cfg.integrity.missResolutionBound = 1;
    cfg.integrity.sweepInterval = 64;
    auto res = trySimulate(cfg, fastWindows());
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().kind, rt::ErrorKind::Invariant);
    EXPECT_NE(res.error().render().find("l1i.miss_resolution"),
              std::string::npos);

    const std::string *snap = contextValue(res.error(), "snapshot");
    ASSERT_NE(snap, nullptr);
    auto doc = obs::JsonValue::parse(*snap);
    ASSERT_TRUE(doc.has_value());
    ASSERT_NE(doc->find("schema"), nullptr);
    EXPECT_EQ(doc->find("schema")->asString(), "dcfb-snapshot-v1");
    ASSERT_NE(doc->find("mshrs"), nullptr);
    EXPECT_GT(doc->find("mshrs")->size(), 0u);
    EXPECT_NE(doc->find("cycle"), nullptr);
    EXPECT_NE(doc->find("retired"), nullptr);
}

TEST(FaultIntegrity, WatchdogTripsOnAnAbsurdWindow)
{
    // A 2-cycle no-progress window trips on the first real L1i miss;
    // the error must carry the snapshot and name the stalled signal.
    auto cfg = faultConfig(Preset::Baseline, "");
    cfg.integrity.watchdogWindow = 2;
    cfg.integrity.sweepInterval = 1;
    auto res = trySimulate(cfg, fastWindows());
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().kind, rt::ErrorKind::Watchdog);
    const std::string *snap = contextValue(res.error(), "snapshot");
    ASSERT_NE(snap, nullptr);
    auto doc = obs::JsonValue::parse(*snap);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("schema")->asString(), "dcfb-snapshot-v1");
}

TEST(FaultIntegrity, DisablingIntegrityKeepsResultsIdentical)
{
    // The integrity layer is observability: sweeps on or off, the
    // simulated machine must produce the same numbers.
    auto on = simulate(faultConfig(Preset::SN4LDisBtb, ""),
                       fastWindows());
    auto cfg = faultConfig(Preset::SN4LDisBtb, "");
    cfg.integrity.invariants = false;
    cfg.integrity.watchdog = false;
    auto off = simulate(cfg, fastWindows());
    EXPECT_EQ(on, off);
}

} // namespace
} // namespace dcfb::sim

/**
 * @file
 * Integration tests for the simulator: end-to-end runs of every preset,
 * ordering sanity (prefetchers reduce frontend stalls; perfect frontend
 * dominates), decoupled-engine behaviour (FTQ/empty-FTQ stalls, Shotgun
 * footprint misses), determinism, and metric identities.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "exec/grid.h"
#include "sim/report.h"
#include "sim/simulator.h"
#include "sim/system.h"
#include "workload/profiles.h"

namespace dcfb::sim {
namespace {

/** Small fast windows for integration testing. */
RunWindows
fastWindows()
{
    return RunWindows{40000, 60000};
}

workload::WorkloadProfile
testProfile()
{
    auto p = workload::serverProfile("Web (Apache)");
    return p;
}

SystemConfig
fastConfig(Preset preset)
{
    SystemConfig cfg = makeConfig(testProfile(), preset);
    cfg.functionalWarmInstrs = 400000;
    return cfg;
}

/** One cached baseline for the ordering tests. */
const RunResult &
baselineRun()
{
    static RunResult res =
        simulate(fastConfig(Preset::Baseline), fastWindows());
    return res;
}

TEST(Simulator, BaselineProducesSaneIpc)
{
    const auto &res = baselineRun();
    EXPECT_GT(res.ipc(), 0.2);
    EXPECT_LT(res.ipc(), 3.0);
    EXPECT_GT(res.instructions, 10000u);
    // Stat identity: hits + misses = accesses.
    EXPECT_EQ(res.stat("l1i.l1i_hits") + res.stat("l1i.l1i_misses"),
              res.stat("l1i.l1i_accesses"));
    // Miss classes partition misses.
    EXPECT_EQ(res.stat("l1i.l1i_seq_misses") +
                  res.stat("l1i.l1i_disc_misses"),
              res.stat("l1i.l1i_misses"));
}

TEST(Simulator, DeterministicAcrossRuns)
{
    auto a = simulate(fastConfig(Preset::SN4L), fastWindows());
    auto b = simulate(fastConfig(Preset::SN4L), fastWindows());
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.stat("l1i.l1i_misses"), b.stat("l1i.l1i_misses"));
}

TEST(Simulator, DifferentSeedsDiffer)
{
    auto cfg = fastConfig(Preset::Baseline);
    cfg.runSeed = 1234;
    auto a = simulate(cfg, fastWindows());
    EXPECT_NE(a.instructions, baselineRun().instructions);
}

TEST(Simulator, PrefetchingImprovesOverBaseline)
{
    auto sn4l = simulate(fastConfig(Preset::SN4L), fastWindows());
    EXPECT_GT(speedup(sn4l, baselineRun()), 1.02);
    EXPECT_LT(sn4l.stat("l1i.l1i_misses"),
              baselineRun().stat("l1i.l1i_misses"));
    EXPECT_GT(fscr(sn4l, baselineRun()), 0.05);
}

TEST(Simulator, FullProposalBeatsSn4lAlone)
{
    auto sn4l = simulate(fastConfig(Preset::SN4L), fastWindows());
    auto full = simulate(fastConfig(Preset::SN4LDisBtb), fastWindows());
    EXPECT_GE(speedup(full, baselineRun()),
              speedup(sn4l, baselineRun()) * 0.99);
}

TEST(Simulator, SelectivityBeatsPlainN4lOnAccuracy)
{
    auto n4l = simulate(fastConfig(Preset::N4LPlain), fastWindows());
    auto sn4l = simulate(fastConfig(Preset::SN4L), fastWindows());
    double n4l_acc = n4l.ratio("l1i.pf_useful", "l1i.pf_issued");
    double sn4l_acc = sn4l.ratio("l1i.pf_useful", "l1i.pf_issued");
    EXPECT_GT(sn4l_acc, n4l_acc);
}

TEST(Simulator, PerfectL1iEliminatesInstructionMisses)
{
    auto perfect = simulate(fastConfig(Preset::PerfectL1i), fastWindows());
    EXPECT_EQ(perfect.stat("l1i.l1i_misses"), 0u);
    EXPECT_GT(speedup(perfect, baselineRun()), 1.1);
}

TEST(Simulator, PerfectBtbAddsOnTopOfPerfectL1i)
{
    auto p1 = simulate(fastConfig(Preset::PerfectL1i), fastWindows());
    auto p2 = simulate(fastConfig(Preset::PerfectL1iBtb), fastWindows());
    EXPECT_GE(p2.ipc(), p1.ipc());
    EXPECT_EQ(p2.stat("fe.fe_btb_redirects"), 0u);
}

TEST(Simulator, NxlDepthIncreasesBandwidth)
{
    auto nl = simulate(fastConfig(Preset::NL), fastWindows());
    auto n8 = simulate(fastConfig(Preset::N8L), fastWindows());
    EXPECT_GT(n8.stat("l1i.l1i_external_requests"),
              nl.stat("l1i.l1i_external_requests"));
}

TEST(Simulator, ConfluenceUsesBigBtbAndPrefetches)
{
    auto conf = simulate(fastConfig(Preset::Confluence), fastWindows());
    EXPECT_GT(conf.stat("pf.shift_issued"), 0u);
    EXPECT_GT(speedup(conf, baselineRun()), 1.0);
}

TEST(Simulator, BoomerangRunsAndPrefetches)
{
    auto boom = simulate(fastConfig(Preset::Boomerang), fastWindows());
    EXPECT_GT(boom.ipc(), 0.2);
    EXPECT_GT(boom.stat("fe.ftq_pushes"), 1000u);
    EXPECT_GT(boom.stat("l1i.pf_issued"), 0u);
}

TEST(Simulator, ShotgunRunsWithFootprints)
{
    auto sg = simulate(fastConfig(Preset::Shotgun), fastWindows());
    EXPECT_GT(sg.ipc(), 0.2);
    EXPECT_GT(sg.stat("sg.ubtb_lookups"), 0u);
    EXPECT_GT(sg.stat("fe.sg_footprint_prefetches"), 0u);
    // Footprint misses exist but are not universal (Fig. 1: 4-31 %).
    double fp_miss = sg.ratio("sg.ubtb_footprint_misses",
                              "sg.ubtb_lookups");
    EXPECT_GT(fp_miss, 0.0);
    EXPECT_LT(fp_miss, 0.9);
}

TEST(Simulator, ShotgunEmptyFtqStallsExist)
{
    auto sg = simulate(fastConfig(Preset::Shotgun), fastWindows());
    EXPECT_GT(sg.stat("fe.fe_empty_ftq_stall_cycles"), 0u);
}

TEST(Simulator, CmalWithinUnitInterval)
{
    auto sn4l = simulate(fastConfig(Preset::SN4L), fastWindows());
    double c = sn4l.cmal();
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    EXPECT_GT(c, 0.3); // SN4L is a timely prefetcher
}

TEST(Simulator, ProposalReducesFrontendStallsMost)
{
    auto full = simulate(fastConfig(Preset::SN4LDisBtb), fastWindows());
    auto nl = simulate(fastConfig(Preset::NL), fastWindows());
    EXPECT_GT(fscr(full, baselineRun()), fscr(nl, baselineRun()));
}

/**
 * Fidelity gap 6 (EXPERIMENTS.md): System::resetStats does not reset the
 * SeqTable, DisTable and RLU stat sets, Confluence's set or the
 * basic-block BTB's set, so their warm-window counts leak into the
 * measured RunResult.  A zero measure window should report all zeros;
 * the keys below do not.  The test flips when the gap closes.
 */
TEST(FidelityGap, WarmWindowLeaksIntoPfAndBbCounters)
{
    const std::set<std::string> dis = {
        "pf.distable_lookups", "pf.distable_records", "pf.rlu_checks",
        "pf.rlu_hits", "pf.seqtable_writes"};
    std::set<std::string> sn4l_dis = dis;
    sn4l_dis.insert("pf.seqtable_conflicts");
    const std::map<Preset, std::set<std::string>> leaked = {
        {Preset::N4LPlain, {"pf.rlu_checks", "pf.rlu_hits"}},
        {Preset::SN4L, {"pf.rlu_checks", "pf.rlu_hits", "pf.seqtable_writes"}},
        {Preset::DisOnly, dis},
        {Preset::SN4LDis, sn4l_dis},
        {Preset::SN4LDisBtb, sn4l_dis},
        {Preset::Confluence,
         {"pf.shift_index_misses", "pf.shift_recorded",
          "pf.shift_stream_follows", "pf.shift_stream_starts"}},
        {Preset::Boomerang,
         {"bb.bbbtb_hits", "bb.bbbtb_lookups", "bb.bbbtb_misses"}},
    };
    auto profile = workload::serverProfile("OLTP (DB A)");
    auto program = workload::ImageCache::global().get(profile);
    for (int p = 0; p <= static_cast<int>(Preset::MicroBtb); ++p) {
        auto preset = static_cast<Preset>(p);
        SystemConfig cfg = makeConfig(profile, preset);
        cfg.program = program;
        RunResult res = simulate(cfg, RunWindows{20000, 0});
        std::set<std::string> nonzero;
        for (const auto &kv : res.stats) {
            if (kv.second != 0)
                nonzero.insert(kv.first);
        }
        auto it = leaked.find(preset);
        EXPECT_EQ(nonzero,
                  it == leaked.end() ? std::set<std::string>{} : it->second)
            << presetName(preset);
    }
}

TEST(Experiment, GridRunsSubset)
{
    auto grid = exec::runGrid(
        "subset", {"Web Frontend"},
        exec::presetVariants({Preset::Baseline, Preset::SN4L}),
        RunWindows{20000, 30000});
    EXPECT_GT(grid.at("Web Frontend", "Baseline").ipc(), 0.0);
    EXPECT_GE(grid.gmean(1, 0), 0.9);
    EXPECT_GT(grid.mean(1, [](const RunResult &r) { return r.ipc(); }),
              0.0);
}

/** The sim.cycle_buckets invariant counts from the last resetStats: it
 *  holds mid-run, and again after a reset partway through. */
TEST(Integrity, CycleBucketsPartitionCyclesSinceReset)
{
    for (Preset preset : {Preset::Baseline, Preset::SN4LDisBtb,
                          Preset::Shotgun, Preset::Fdip}) {
        SystemConfig cfg = fastConfig(preset);
        cfg.functionalWarmInstrs = 20000;
        System system(cfg);
        for (int i = 0; i < 3000; ++i)
            system.step();
        EXPECT_TRUE(system.invariants.check(system.now()).ok())
            << presetName(preset);
        system.resetStats();
        for (int i = 0; i < 5000; ++i)
            system.step();
        EXPECT_TRUE(system.invariants.check(system.now()).ok())
            << presetName(preset);
    }
}

TEST(Report, TableRendersAligned)
{
    Table t({"a", "bbb"});
    t.addRow({"x", "y"});
    std::string out = t.render();
    EXPECT_NE(out.find("a"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
    EXPECT_EQ(Table::pct(0.1234), "12.3%");
    EXPECT_EQ(Table::num(1.5, 1), "1.5");
}

TEST(Config, PresetNamesUnique)
{
    for (int a = 0; a <= static_cast<int>(Preset::PerfectL1iBtb); ++a) {
        for (int b = a + 1; b <= static_cast<int>(Preset::PerfectL1iBtb);
             ++b) {
            EXPECT_NE(presetName(static_cast<Preset>(a)),
                      presetName(static_cast<Preset>(b)));
        }
    }
}

TEST(Config, VlProfileEnablesDvLlc)
{
    auto p = workload::serverProfile("Web Frontend", true);
    auto cfg = makeConfig(p, Preset::SN4LDisBtb);
    EXPECT_TRUE(cfg.llc.dvllc);
    EXPECT_TRUE(cfg.l1i.fetchFootprints);
    EXPECT_TRUE(cfg.sn4l.disTable.byteOffsets);
}

} // namespace
} // namespace dcfb::sim

/**
 * @file
 * Tests for the fetch engines: coupled-frontend redirect behaviour
 * (BTB misses, mispredicts, wrong-path fetching), decoupled-engine FTQ
 * dynamics (BPU lookahead, reactive stalls, footprint construction),
 * and VL-ISA end-to-end runs.
 */

#include <gtest/gtest.h>

#include "all_presets.h"
#include "sim/simulator.h"
#include "sim/system.h"
#include "workload/profiles.h"

namespace dcfb::sim {
namespace {

SystemConfig
smallConfig(Preset preset, const std::string &workload = "Web Frontend")
{
    SystemConfig cfg = makeConfig(workload::serverProfile(workload), preset);
    cfg.functionalWarmInstrs = 300000;
    return cfg;
}

RunWindows
tiny()
{
    return RunWindows{20000, 40000};
}

TEST(CoupledFetch, BtbMissesCauseRedirects)
{
    // With a tiny BTB, taken branches frequently miss and each miss must
    // produce a decode-time redirect plus wrong-path fetches.
    auto cfg = smallConfig(Preset::Baseline);
    cfg.btbEntries = 64;
    cfg.functionalWarmInstrs = 0; // keep the BTB cold
    auto res = simulate(cfg, tiny());
    EXPECT_GT(res.stat("fe.fe_btb_redirects"), 100u);
    EXPECT_GT(res.stat("fe.fe_btb_stall_cycles"), 500u);
    EXPECT_GT(res.stat("fe.fe_wrong_path_blocks"), 50u);
    EXPECT_GT(res.stat("l1i.l1i_wp_accesses"), 50u);
}

TEST(CoupledFetch, BiggerBtbReducesRedirects)
{
    auto small = smallConfig(Preset::Baseline);
    small.btbEntries = 128;
    auto big = smallConfig(Preset::Baseline);
    big.btbEntries = 16384;
    auto rs = simulate(small, tiny());
    auto rb = simulate(big, tiny());
    EXPECT_LT(rb.stat("fe.fe_btb_redirects"),
              rs.stat("fe.fe_btb_redirects"));
    EXPECT_GE(rb.ipc(), rs.ipc());
}

TEST(CoupledFetch, MispredictsProduceStalls)
{
    auto res = simulate(smallConfig(Preset::Baseline), tiny());
    EXPECT_GT(res.stat("fe.fe_cond_mispredicts") +
                  res.stat("fe.fe_indirect_mispredicts"),
              0u);
    EXPECT_GT(res.stat("fe.fe_mispredict_stall_cycles"), 0u);
}

TEST(CoupledFetch, PerfectBtbHasNoBtbRedirects)
{
    auto res = simulate(smallConfig(Preset::PerfectL1iBtb), tiny());
    EXPECT_EQ(res.stat("fe.fe_btb_redirects"), 0u);
    EXPECT_EQ(res.stat("fe.fe_btb_miss_taken"), 0u);
}

TEST(CoupledFetch, FetchedMatchesDispatched)
{
    auto res = simulate(smallConfig(Preset::Baseline), tiny());
    // Every dispatched instruction was fetched (plus fetch-buffer
    // residue at the end of the run).
    EXPECT_GE(res.stat("fe.fe_fetched") + 64, res.stat("be.dispatched"));
    EXPECT_GT(res.instructions, 1000u);
}

TEST(DecoupledFetch, ShotgunFootprintsEnableRegionPrefetch)
{
    auto res = simulate(smallConfig(Preset::Shotgun, "Web (Apache)"),
                        tiny());
    EXPECT_GT(res.stat("fe.sg_footprint_prefetches"), 0u);
    // Entries restored by prefill skip region prefetch (Section III).
    EXPECT_GT(res.stat("sg.ubtb_footprint_misses"), 0u);
}

TEST(DecoupledFetch, ShotgunSmallerUbtbMoreFootprintMisses)
{
    auto big = smallConfig(Preset::Shotgun, "Web (Apache)");
    auto small = smallConfig(Preset::Shotgun, "Web (Apache)");
    small.shotgunBtb.ubtbEntries = 192;
    small.shotgunBtb.ubtbAssoc = 6;
    auto rb = simulate(big, tiny());
    auto rs = simulate(small, tiny());
    double big_ratio = rb.ratio("sg.ubtb_footprint_misses",
                                "sg.ubtb_lookups");
    double small_ratio = rs.ratio("sg.ubtb_footprint_misses",
                                  "sg.ubtb_lookups");
    EXPECT_GT(small_ratio, big_ratio);
}

TEST(DecoupledFetch, IndirectTargetMispredictsCharged)
{
    auto res = simulate(smallConfig(Preset::Shotgun, "Web (Apache)"),
                        tiny());
    // The driver's indirect calls change targets; the BPU must pay.
    EXPECT_GT(res.stat("fe.bpu_target_mispredicts"), 0u);
    EXPECT_GT(res.stat("fe.bpu_wrong_path_prefetches"), 0u);
}

TEST(DecoupledFetch, FtqPushesCoverFetchedInstructions)
{
    auto res = simulate(smallConfig(Preset::Shotgun, "Web (Apache)"),
                        tiny());
    EXPECT_GT(res.stat("fe.ftq_pushes"), 0u);
    EXPECT_GT(res.stat("fe.fe_fetched"), 1000u);
}

TEST(VlIsa, EndToEndRunsWithFootprints)
{
    auto profile = workload::serverProfile("Web Frontend", true);
    auto cfg = makeConfig(profile, Preset::SN4LDisBtb);
    cfg.functionalWarmInstrs = 300000;
    auto res = simulate(cfg, tiny());
    EXPECT_GT(res.ipc(), 0.2);
    EXPECT_GT(res.stat("llc.bf_branches_recorded"), 0u);
    EXPECT_GT(res.stat("llc.bf_fetch_attempts"), 0u);
    // Footprint-guided prefill actually happened.
    EXPECT_GT(res.stat("pf.btb_prefill_blocks"), 0u);
}

TEST(VlIsa, DvLlcActivatesHolders)
{
    auto profile = workload::serverProfile("Web Frontend", true);
    auto cfg = makeConfig(profile, Preset::SN4LDisBtb);
    cfg.functionalWarmInstrs = 300000;
    auto res = simulate(cfg, tiny());
    EXPECT_GT(res.stat("llc.dvllc_holder_activations"), 0u);
}

TEST(VlIsa, BaselineComparableToFixedLength)
{
    // The VL flavour of a workload should behave in the same performance
    // ballpark as the fixed-length one (sanity, not equality).
    auto fl = simulate(smallConfig(Preset::Baseline), tiny());
    auto profile = workload::serverProfile("Web Frontend", true);
    auto cfg = makeConfig(profile, Preset::Baseline);
    cfg.functionalWarmInstrs = 300000;
    auto vl = simulate(cfg, tiny());
    EXPECT_GT(vl.ipc(), fl.ipc() * 0.4);
    EXPECT_LT(vl.ipc(), fl.ipc() * 2.5);
}

/** Property sweep: every preset runs, retires instructions, and keeps
 *  the stall taxonomy within the cycle budget. */
class AllPresets : public ::testing::TestWithParam<Preset>
{};

TEST_P(AllPresets, RunsAndAccountsCycles)
{
    auto res = simulate(smallConfig(GetParam()), tiny());
    EXPECT_GT(res.instructions, 1000u);
    std::uint64_t stalls = res.stat("sim.stall_backend") +
        res.stat("sim.stall_frontend") + res.stat("sim.stall_mispredict") +
        res.stat("sim.stall_other") + res.stat("sim.dispatch_active_cycles");
    EXPECT_LE(stalls, res.cycles);
    EXPECT_GE(stalls, res.cycles * 9 / 10);
}

/** Building a System reads the walker for the warm stream only: no
 *  fetch engine reads ahead before its first cycle, so the functional
 *  warmup can follow every engine's construction. */
TEST_P(AllPresets, ConstructionReadsOnlyTheWarmStream)
{
    const SystemConfig cfg = smallConfig(GetParam());
    System sys(cfg);
    EXPECT_EQ(sys.walker->retired(), cfg.functionalWarmInstrs);
}

INSTANTIATE_TEST_SUITE_P(
    Presets, AllPresets,
    ::testing::ValuesIn(test::allPresets()),
    [](const ::testing::TestParamInfo<Preset> &info) {
        std::string n = presetName(info.param);
        for (char &c : n) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return n;
    });

} // namespace
} // namespace dcfb::sim

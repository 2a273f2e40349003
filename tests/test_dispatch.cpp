/**
 * @file
 * Dispatch-equivalence tests (DESIGN.md section 12): the
 * preset-specialized System::step path and the generic
 * (virtual-dispatch) path forced by SystemConfig::genericStep must
 * produce bit-identical RunResults — same counters, same histograms,
 * same serialized bytes — across the full 18-preset matrix, serially
 * and on a 4-worker pool.
 */

#include <gtest/gtest.h>

#include "exec/grid.h"
#include "sim/report.h"
#include "sim/simulator.h"
#include "workload/profiles.h"

namespace dcfb::sim {
namespace {

std::vector<Preset>
allPresets()
{
    return {Preset::Baseline,   Preset::NL,
            Preset::N2L,        Preset::N4L,
            Preset::N8L,        Preset::N4LPlain,
            Preset::SN4L,       Preset::DisOnly,
            Preset::SN4LDis,    Preset::SN4LDisBtb,
            Preset::ClassicDis, Preset::Confluence,
            Preset::Boomerang,  Preset::Shotgun,
            Preset::PerfectL1i, Preset::PerfectL1iBtb,
            Preset::Fdip,       Preset::MicroBtb};
}

/** Small cells so the 18-preset matrix stays cheap. */
void
shrink(SystemConfig &cfg)
{
    cfg.profile.numFunctions = 24;
    cfg.profile.dataFootprint = 1ull << 20;
    cfg.functionalWarmInstrs = 40000;
}

RunWindows
tinyWindows()
{
    return RunWindows{4000, 6000};
}

SystemConfig
tinyConfig(Preset preset, bool generic)
{
    SystemConfig cfg =
        makeConfig(workload::serverProfile("Web (Apache)"), preset);
    shrink(cfg);
    cfg.genericStep = generic;
    return cfg;
}

TEST(DispatchEquivalence, GenericMatchesSpecializedSerially)
{
    for (Preset preset : allPresets()) {
        RunResult specialized =
            simulate(tinyConfig(preset, /*generic=*/false),
                     tinyWindows());
        RunResult generic =
            simulate(tinyConfig(preset, /*generic=*/true),
                     tinyWindows());
        // Structural equality (counters, histograms, identity) ...
        EXPECT_EQ(specialized, generic) << presetName(preset);
        // ... and byte-identical serialization, the golden-corpus
        // currency.
        EXPECT_EQ(toJson(specialized).dump(2), toJson(generic).dump(2))
            << presetName(preset);
    }
}

TEST(DispatchEquivalence, GenericMatchesSpecializedOnFourWorkers)
{
    const std::vector<std::string> workloads = {"Web (Apache)"};
    auto hook = [](SystemConfig &cfg) {
        shrink(cfg);
        cfg.genericStep = false;
    };
    auto generic_hook = [](SystemConfig &cfg) {
        shrink(cfg);
        cfg.genericStep = true;
    };

    auto specialized = exec::runGrid("specialized", workloads,
                                     exec::presetVariants(allPresets(), hook),
                                     tinyWindows(), 4);
    auto generic = exec::runGrid(
        "generic", workloads, exec::presetVariants(allPresets(), generic_hook),
        tinyWindows(), 4);

    for (Preset preset : allPresets()) {
        const auto &a = specialized.at(workloads[0], presetName(preset));
        const auto &b = generic.at(workloads[0], presetName(preset));
        EXPECT_EQ(a, b) << presetName(preset);
        EXPECT_EQ(toJson(a).dump(2), toJson(b).dump(2))
            << presetName(preset);
    }
    EXPECT_EQ(specialized.execReport().jobs, 4u);
    EXPECT_EQ(generic.execReport().jobs, 4u);
}

} // namespace
} // namespace dcfb::sim

/**
 * @file
 * Example: compare the evaluated frontend designs on one workload —
 * the paper's full cast (baseline, NXL family, SN4L ablations,
 * Confluence, Shotgun, the FDIP and micro-BTB competitors, perfect
 * frontends).
 *
 * Usage: prefetcher_comparison [workload-name]
 */

#include <cstdio>
#include <string>

#include "sim/report.h"
#include "sim/simulator.h"
#include "workload/profiles.h"

int
main(int argc, char **argv)
{
    using namespace dcfb;

    std::string name = argc > 1 ? argv[1] : "OLTP (DB A)";
    auto profile = workload::serverProfile(name);
    sim::RunWindows windows{150000, 150000};

    auto base = sim::simulate(
        sim::makeConfig(profile, sim::Preset::Baseline), windows);

    sim::Table table({"design", "IPC", "speedup", "L1i miss cov.",
                      "pf accuracy", "FSCR"});
    const sim::Preset designs[] = {
        sim::Preset::Baseline,   sim::Preset::NL,
        sim::Preset::N4L,        sim::Preset::SN4L,
        sim::Preset::SN4LDis,    sim::Preset::SN4LDisBtb,
        sim::Preset::Confluence, sim::Preset::Shotgun,
        sim::Preset::Fdip,       sim::Preset::MicroBtb,
        sim::Preset::PerfectL1i, sim::Preset::PerfectL1iBtb,
    };
    for (auto preset : designs) {
        auto res = preset == sim::Preset::Baseline
            ? base
            : sim::simulate(sim::makeConfig(profile, preset), windows);
        double acc = res.stat("l1i.pf_issued")
            ? res.ratio("l1i.pf_useful", "l1i.pf_issued")
            : 0.0;
        table.addRow({res.design, sim::Table::num(res.ipc()),
                      sim::Table::num(sim::speedup(res, base), 3),
                      sim::Table::pct(res.coverage(
                          base.stat("l1i.l1i_misses"))),
                      sim::Table::pct(acc),
                      sim::Table::pct(sim::fscr(res, base))});
    }
    table.print("All designs on " + name);
    return 0;
}

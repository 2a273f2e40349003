/**
 * @file
 * Quickstart: build a server workload, run the baseline and the paper's
 * SN4L+Dis+BTB prefetcher, and print the headline numbers.
 *
 * Usage: quickstart [workload-name]
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

    std::string name = argc > 1 ? argv[1] : "Web (Apache)";
    auto profile = workload::serverProfile(name);
    std::printf("workload: %s  (code footprint: %zu KB)\n", name.c_str(),
                workload::buildProgram(profile).codeBytes() / 1024);

    sim::RunWindows windows;
    sim::Table table({"design", "IPC", "speedup", "L1i MPKI",
                      "frontend stalls", "FSCR"});

    auto base = sim::simulate(
        sim::makeConfig(profile, sim::Preset::Baseline), windows);
    for (auto preset :
         {sim::Preset::Baseline, sim::Preset::NL, sim::Preset::SN4L,
          sim::Preset::SN4LDisBtb, sim::Preset::PerfectL1i}) {
        auto res = preset == sim::Preset::Baseline
            ? base
            : sim::simulate(sim::makeConfig(profile, preset), windows);
        double mpki = res.instructions
            ? 1000.0 * static_cast<double>(res.stat("l1i.l1i_misses")) /
                static_cast<double>(res.instructions)
            : 0.0;
        table.addRow({res.design, sim::Table::num(res.ipc()),
                      sim::Table::num(sim::speedup(res, base), 3),
                      sim::Table::num(mpki, 1),
                      std::to_string(res.frontendStalls()),
                      sim::Table::pct(sim::fscr(res, base))});
    }
    table.print("quickstart: " + name);
    return 0;
}

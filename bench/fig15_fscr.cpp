/**
 * @file
 * Figure 15: Frontend Stall Cycle Reduction (FSCR) of SN4L+Dis+BTB,
 * Shotgun and Confluence.  Paper: 61 / 35 / 32 % on average.
 */

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace dcfb;
    bench::Harness h(argc, argv, "Fig. 15 - Frontend Stall Cycle Reduction",
                  "SN4L+Dis+BTB 61%, Shotgun 35%, Confluence 32% (avg)");

    // Column 0 is the baseline every design's FSCR is measured against.
    auto grid = exec::runGrid(
        "fig15 FSCR grid", bench::allWorkloads(),
        exec::presetVariants({sim::Preset::Baseline, sim::Preset::SN4LDisBtb,
                              sim::Preset::Shotgun, sim::Preset::Confluence}),
        sim::RunWindows{});

    sim::Table table({"workload", "SN4L+Dis+BTB", "Shotgun", "Confluence"});
    for (std::size_t w = 0; w < grid.workloads().size(); ++w) {
        std::vector<std::string> row{grid.workloads()[w]};
        for (std::size_t v = 1; v < grid.variants().size(); ++v)
            row.push_back(sim::Table::pct(sim::fscr(grid.at(w, v),
                                                    grid.at(w, 0))));
        table.addRow(row);
    }
    std::vector<std::string> avg{"Average"};
    for (std::size_t v = 1; v < grid.variants().size(); ++v)
        avg.push_back(sim::Table::pct(grid.mean(v, 0, sim::fscr)));
    table.addRow(avg);
    h.report(table, "Frontend Stall Cycle Reduction (FSCR)");
    return 0;
}

/**
 * @file
 * Figure 17: performance breakdown of SN4L+Dis+BTB and comparison to a
 * perfect frontend.  Paper: N4L < SN4L (13 %) < SN4L+Dis (15 %) <
 * SN4L+Dis+BTB (19 %) ~ Perfect L1i < Perfect L1i + BTBinf (29 %).
 */

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace dcfb;
    bench::Harness h(argc, argv, "Fig. 17 - performance breakdown vs. perfect frontend",
                  "N4L < SN4L 13% < +Dis 15% < +BTB 19% <= PerfectL1i; "
                  "PerfectL1i+BTBinf 29%");

    // The designs, then the no-prefetcher baseline in the last column.
    auto grid = exec::runGrid(
        "fig17 breakdown grid", bench::allWorkloads(),
        exec::presetVariants({sim::Preset::N4LPlain, sim::Preset::SN4L,
                              sim::Preset::SN4LDis, sim::Preset::SN4LDisBtb,
                              sim::Preset::PerfectL1i,
                              sim::Preset::PerfectL1iBtb,
                              sim::Preset::Baseline}),
        sim::RunWindows{});
    const std::size_t base = grid.variants().size() - 1;

    sim::Table table({"design", "speedup (geomean)"});
    for (std::size_t v = 0; v < base; ++v) {
        table.addRow({grid.variants()[v],
                      sim::Table::num(grid.gmean(v, base), 3)});
    }
    h.report(table, "Performance breakdown of SN4L+Dis+BTB");
    return 0;
}

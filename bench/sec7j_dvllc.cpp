/**
 * @file
 * Section VII.J: variable-length ISA support via DV-LLC.  The paper
 * reports that virtualizing branch footprints in the LRU way leaves the
 * LLC instruction hit ratio unchanged, costs at most 0.1 % of the data
 * hit ratio, and preserves the prefetcher's speedup.
 */

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace dcfb;
    bench::Harness h(argc, argv, "Sec. VII.J - DV-LLC on the variable-length ISA",
                  "instr hit ratio unchanged; data hit ratio -0.1% worst; "
                  "same speedup");

    sim::Table table({"workload", "instr hit (conv)", "instr hit (DV)",
                      "data hit (conv)", "data hit (DV)",
                      "speedup (conv)", "speedup (DV)"});
    // Conventional-LLC Baseline and SN4L+Dis+BTB, then SN4L+Dis+BTB on
    // the DV-LLC.
    auto conventional = [](sim::SystemConfig &cfg) {
        cfg.llc.dvllc = false;
        cfg.l1i.fetchFootprints = false;
    };
    auto grid = exec::runGrid(
        "sec7j DV-LLC grid", bench::sweepWorkloads(),
        {{"Baseline (conv)", sim::Preset::Baseline, conventional},
         {"SN4L+Dis+BTB (conv)", sim::Preset::SN4LDisBtb, conventional},
         {"SN4L+Dis+BTB (DV)", sim::Preset::SN4LDisBtb}},
        sim::RunWindows{}, 0, /*vl=*/true);
    for (std::size_t w = 0; w < grid.workloads().size(); ++w) {
        const auto &base = grid.at(w, 0);
        const auto &conv = grid.at(w, 1);
        const auto &dv = grid.at(w, 2);
        table.addRow(
            {grid.workloads()[w],
             sim::Table::pct(conv.ratio("llc.llc_instr_hits",
                                        "llc.llc_instr_accesses")),
             sim::Table::pct(dv.ratio("llc.llc_instr_hits",
                                      "llc.llc_instr_accesses")),
             sim::Table::pct(conv.ratio("llc.llc_data_hits",
                                        "llc.llc_data_accesses")),
             sim::Table::pct(dv.ratio("llc.llc_data_hits",
                                      "llc.llc_data_accesses")),
             sim::Table::num(sim::speedup(conv, base), 3),
             sim::Table::num(sim::speedup(dv, base), 3)});
    }
    h.report(table, "DV-LLC vs. conventional LLC (VL-ISA workloads)");
    return 0;
}

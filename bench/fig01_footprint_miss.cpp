/**
 * @file
 * Figure 1: footprint miss ratio in Shotgun's U-BTB per workload.
 * Paper band: 4-31 %, worst on OLTP (DB A).
 */

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace dcfb;
    bench::Harness h(argc, argv, "Fig. 1 - Shotgun U-BTB footprint miss ratio",
                  "4-31% across workloads; OLTP (DB A) worst (31%)");

    sim::Table table({"workload", "U-BTB lookups", "footprint misses",
                      "footprint miss ratio"});
    auto grid = exec::runGrid("fig01 Shotgun", bench::allWorkloads(),
                              exec::presetVariants({sim::Preset::Shotgun}),
                              sim::RunWindows{});
    for (std::size_t w = 0; w < grid.workloads().size(); ++w) {
        const auto &res = grid.at(w, 0);
        table.addRow({grid.workloads()[w],
                      std::to_string(res.stat("sg.ubtb_lookups")),
                      std::to_string(res.stat("sg.ubtb_footprint_misses")),
                      sim::Table::pct(res.ratio(
                          "sg.ubtb_footprint_misses", "sg.ubtb_lookups"))});
    }
    h.report(table, "Footprint miss ratio in Shotgun");
    return 0;
}

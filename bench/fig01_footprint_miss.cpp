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
    auto names = bench::allWorkloads();
    std::vector<sim::SystemConfig> cfgs;
    for (const auto &name : names) {
        cfgs.push_back(sim::makeConfig(workload::serverProfile(name),
                                       sim::Preset::Shotgun));
    }
    auto results =
        bench::simulateAll("fig01 Shotgun", std::move(cfgs), bench::windows());
    for (std::size_t i = 0; i < names.size(); ++i) {
        const auto &name = names[i];
        const auto &res = results[i];
        table.addRow({name,
                      std::to_string(res.stat("sg.ubtb_lookups")),
                      std::to_string(res.stat("sg.ubtb_footprint_misses")),
                      sim::Table::pct(res.ratio(
                          "sg.ubtb_footprint_misses", "sg.ubtb_lookups"))});
    }
    h.report(table, "Footprint miss ratio in Shotgun");
    return 0;
}

/**
 * @file
 * Figure 18: speedup of SN4L+Dis+BTB over Shotgun as the BTB budget
 * shrinks (emulating the larger instruction footprints of commercial
 * server workloads).  Paper: the gap grows as the BTB size decreases.
 */

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace dcfb;
    bench::Harness h(argc, argv, "Fig. 18 - ours vs. Shotgun with shrinking BTBs",
                  "the gap over Shotgun grows as BTB size decreases");

    // One (ours, Shotgun) column pair per BTB scale.
    const std::vector<unsigned> divs{1, 2, 4, 8};
    std::vector<exec::Variant> variants;
    for (unsigned div : divs) {
        variants.push_back({"ours 1/" + std::to_string(div),
                            sim::Preset::SN4LDisBtb,
                            [div](sim::SystemConfig &cfg) {
            cfg.btbEntries = 2048 / div;
        }});
        variants.push_back({"Shotgun 1/" + std::to_string(div),
                            sim::Preset::Shotgun,
                            [div](sim::SystemConfig &cfg) {
            cfg.shotgunBtb.ubtbEntries = 1536 / div;
            cfg.shotgunBtb.cbtbEntries = std::max(128u / div, 16u);
            cfg.shotgunBtb.ribEntries = std::max(512u / div, 32u);
        }});
    }
    auto grid = exec::runGrid("fig18 BTB sweep", bench::allWorkloads(),
                              std::move(variants), sim::RunWindows{});

    sim::Table table({"BTB scale", "ours BTB", "Shotgun U-BTB",
                      "ours/Shotgun speedup"});
    for (std::size_t i = 0; i < divs.size(); ++i) {
        table.addRow({"1/" + std::to_string(divs[i]),
                      std::to_string(2048 / divs[i]),
                      std::to_string(1536 / divs[i]),
                      sim::Table::num(grid.gmean(2 * i, 2 * i + 1), 3)});
    }
    h.report(table, "Speedup of SN4L+Dis+BTB over Shotgun, varying BTB size");
    return 0;
}

/**
 * @file
 * Figure 2: fraction of L1i misses that are sequential (spatially next
 * to the last accessed block).  Paper band: 65-80 %.
 */

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace dcfb;
    bench::Harness h(argc, argv, "Fig. 2 - fraction of sequential L1i misses",
                  "65-80% of misses are sequential");

    sim::Table table({"workload", "L1i misses", "sequential",
                      "sequential fraction"});
    auto grid = exec::runGrid("fig02 Baseline", bench::allWorkloads(),
                              exec::presetVariants({sim::Preset::Baseline}),
                              sim::RunWindows{});
    auto seq_fraction = [](const sim::RunResult &res) {
        return res.ratio("l1i.l1i_seq_misses", "l1i.l1i_misses");
    };
    for (std::size_t w = 0; w < grid.workloads().size(); ++w) {
        const auto &res = grid.at(w, 0);
        table.addRow({grid.workloads()[w],
                      std::to_string(res.stat("l1i.l1i_misses")),
                      std::to_string(res.stat("l1i.l1i_seq_misses")),
                      sim::Table::pct(seq_fraction(res))});
    }
    table.addRow({"Average", "", "",
                  sim::Table::pct(grid.mean(0, seq_fraction))});
    h.report(table, "Fraction of sequential cache misses");
    return 0;
}

/**
 * @file
 * Figure 3: NL prefetcher's *sequential* miss coverage over a baseline
 * with no prefetcher.  Paper: 63 % on average (NL's poor timeliness
 * leaves 37 % uncovered).
 */

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace dcfb;
    bench::Harness h(argc, argv, "Fig. 3 - NL sequential miss coverage",
                  "average 63%; the remainder is NL's poor timeliness");

    sim::Table table({"workload", "base seq misses", "NL seq misses",
                      "seq coverage"});
    auto grid = exec::runGrid(
        "fig03 Baseline vs NL", bench::allWorkloads(),
        exec::presetVariants({sim::Preset::Baseline, sim::Preset::NL}),
        sim::RunWindows{});
    auto seq_coverage = [](const sim::RunResult &nl,
                           const sim::RunResult &base) {
        double b = static_cast<double>(base.stat("l1i.l1i_seq_misses"));
        double n = static_cast<double>(nl.stat("l1i.l1i_seq_misses"));
        return b > 0 ? std::max(0.0, 1.0 - n / b) : 0.0;
    };
    for (std::size_t w = 0; w < grid.workloads().size(); ++w) {
        const auto &base = grid.at(w, 0);
        const auto &nl = grid.at(w, 1);
        table.addRow({grid.workloads()[w],
                      std::to_string(base.stat("l1i.l1i_seq_misses")),
                      std::to_string(nl.stat("l1i.l1i_seq_misses")),
                      sim::Table::pct(seq_coverage(nl, base))});
    }
    table.addRow({"Average", "", "",
                  sim::Table::pct(grid.mean(1, 0, seq_coverage))});
    h.report(table, "NL sequential miss coverage");
    return 0;
}

/**
 * @file
 * Figure 16: performance of the evaluated designs over the
 * no-prefetcher baseline.  Paper: SN4L+Dis+BTB 19 % average (7 % Web
 * Frontend to 50 % Media Streaming), 5 % over Shotgun on average and
 * 16 % on OLTP (DB A); Confluence wins only on OLTP (DB A).
 */

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace dcfb;
    bench::Harness h(argc, argv, "Fig. 16 - speedup over no-prefetcher baseline",
                  "ours 1.19 avg (1.07-1.50); +5% vs Shotgun, +16% on DB A");

    // The designs, then the no-prefetcher baseline in the last column.
    auto grid = exec::runGrid(
        "fig16 speedup grid", bench::allWorkloads(),
        exec::presetVariants({sim::Preset::NL, sim::Preset::SN4LDisBtb,
                              sim::Preset::Shotgun, sim::Preset::Confluence,
                              sim::Preset::Baseline}),
        sim::RunWindows{});
    const std::size_t ours = 1, shotgun = 2, base = 4;

    sim::Table table(
        {"workload", "NL", "SN4L+Dis+BTB", "Shotgun", "Confluence"});
    for (std::size_t w = 0; w < grid.workloads().size(); ++w) {
        std::vector<std::string> row{grid.workloads()[w]};
        for (std::size_t v = 0; v < base; ++v) {
            row.push_back(sim::Table::num(
                sim::speedup(grid.at(w, v), grid.at(w, base)), 3));
        }
        table.addRow(row);
    }
    std::vector<std::string> avg{"GeoMean"};
    for (std::size_t v = 0; v < base; ++v)
        avg.push_back(sim::Table::num(grid.gmean(v, base), 3));
    table.addRow(avg);
    h.report(table, "Speedup over baseline without instruction/BTB prefetch");

    double over_shotgun =
        (grid.gmean(ours, base) / grid.gmean(shotgun, base) - 1.0) * 100.0;
    std::printf("\nSN4L+Dis+BTB over Shotgun (avg): %.1f%%\n", over_shotgun);
    h.note("sn4l_over_shotgun_avg_pct", over_shotgun);
    const auto &dba_ours = grid.at("OLTP (DB A)", "SN4L+Dis+BTB");
    const auto &dba_sg = grid.at("OLTP (DB A)", "Shotgun");
    std::printf("SN4L+Dis+BTB over Shotgun (OLTP DB A): %.1f%%\n",
                (dba_ours.ipc() / dba_sg.ipc() - 1.0) * 100.0);
    h.note("sn4l_over_shotgun_dba_pct",
           (dba_ours.ipc() / dba_sg.ipc() - 1.0) * 100.0);
    return 0;
}

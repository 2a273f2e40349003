/**
 * @file
 * Figure 19 (competitor study): the evaluated proposal against the two
 * competitor frontends it is most often compared to -- FDIP (a
 * fetch-directed prefetcher fed by a decoupled BPU running on the
 * conventional BTB) and Micro BTB (a large last-level BTB behind the
 * main BTB, no instruction prefetching).  Each competitor attacks one
 * side of the frontend bottleneck only -- FDIP the L1i misses, Micro
 * BTB the BTB misses -- while the proposal covers both.  EXPERIMENTS.md
 * discusses where the synthetic workloads bend this comparison away
 * from the paper's testbed (their BTB-miss side is mild, flattering
 * FDIP and starving Micro BTB).
 */

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace dcfb;
    bench::Harness h(argc, argv,
                     "Fig. 19 - competitor prefetchers vs the proposal",
                     "FDIP recovers the L1i side only, Micro BTB the "
                     "BTB side only; the proposal covers both");

    // The designs, then the no-prefetcher baseline in the last column.
    auto grid = exec::runGrid(
        "fig19 competitor grid", bench::allWorkloads(),
        exec::presetVariants({sim::Preset::Fdip, sim::Preset::MicroBtb,
                              sim::Preset::SN4LDisBtb,
                              sim::Preset::Baseline}),
        sim::RunWindows{});
    const std::size_t base = 3;

    sim::Table table({"workload", "FDIP", "MicroBTB", "SN4L+Dis+BTB"});
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
    h.report(table, "Speedup over baseline: competitors vs the proposal");

    double fdip = grid.gmean(0, base);
    double mbtb = grid.gmean(1, base);
    double ours = grid.gmean(2, base);
    h.note("fdip_gmean_speedup", fdip);
    h.note("microbtb_gmean_speedup", mbtb);
    h.note("ours_gmean_speedup", ours);
    std::printf("\nSN4L+Dis+BTB over FDIP (avg): %.1f%%\n",
                (ours / fdip - 1.0) * 100.0);
    h.note("ours_over_fdip_avg_pct", (ours / fdip - 1.0) * 100.0);
    std::printf("SN4L+Dis+BTB over MicroBTB (avg): %.1f%%\n",
                (ours / mbtb - 1.0) * 100.0);
    h.note("ours_over_microbtb_avg_pct", (ours / mbtb - 1.0) * 100.0);
    return 0;
}

/**
 * @file
 * Figure 5: side effects of useless sequential prefetches - average LLC
 * access latency and L1i external bandwidth usage of NXL prefetchers,
 * normalized to the no-prefetcher baseline (with a 64-entry prefetch
 * buffer protecting the L1i from pollution).  Paper: N8L inflates LLC
 * latency by 28 % and external bandwidth by 7.2x.
 */

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace dcfb;
    bench::Harness h(argc, argv, "Fig. 5 - useless-prefetch side effects",
                  "N8L: LLC latency +28%, L1i ext. bandwidth 7.2x");

    auto grid = exec::runGrid(
        "fig05 NXL grid", bench::allWorkloads(),
        exec::presetVariants({sim::Preset::Baseline, sim::Preset::NL,
                              sim::Preset::N2L, sim::Preset::N4L,
                              sim::Preset::N8L}),
        sim::RunWindows{});
    auto llc_latency = [](const sim::RunResult &res) {
        return res.ratio("llc.llc_latency_sum", "llc.llc_accesses");
    };
    auto ext_requests = [](const sim::RunResult &res) {
        return static_cast<double>(res.stat("l1i.l1i_external_requests"));
    };
    double base_lat = grid.mean(0, llc_latency);
    double base_bw = grid.mean(0, ext_requests);

    sim::Table table({"design", "LLC latency (norm.)",
                      "L1i ext. bandwidth (norm.)"});
    table.addRow({"Baseline", "1.00", "1.00"});
    for (std::size_t v = 1; v < grid.variants().size(); ++v) {
        table.addRow({grid.variants()[v],
                      sim::Table::num(grid.mean(v, llc_latency) / base_lat),
                      sim::Table::num(grid.mean(v, ext_requests) / base_bw)});
    }
    h.report(table, "LLC latency and L1i external bandwidth (normalized)");
    return 0;
}

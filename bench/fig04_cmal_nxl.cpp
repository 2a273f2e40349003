/**
 * @file
 * Figure 4: covered memory access latency (CMAL) of NL, N2L, N4L and
 * N8L.  Paper: 65 / 80 / 88 / 85 % - note the N8L inversion caused by
 * useless-prefetch traffic inflating LLC latency.
 */

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace dcfb;
    bench::Harness h(argc, argv, "Fig. 4 - CMAL for sequential prefetchers",
                  "NL 65%, N2L 80%, N4L 88%, N8L 85% (N8L inverts)");

    sim::Table table({"design", "CMAL (avg over workloads)",
                      "ext. requests (avg)"});
    auto grid = exec::runGrid(
        "fig04 NXL grid", bench::allWorkloads(),
        exec::presetVariants({sim::Preset::NL, sim::Preset::N2L,
                              sim::Preset::N4L, sim::Preset::N8L}),
        sim::RunWindows{});
    for (std::size_t v = 0; v < grid.variants().size(); ++v) {
        table.addRow({grid.variants()[v],
                      sim::Table::pct(grid.mean(v, &sim::RunResult::cmal)),
                      std::to_string(
                          grid.total(v, "l1i.l1i_external_requests") /
                          grid.workloads().size())});
    }
    h.report(table, "Covered Memory Access Latency (CMAL)");
    return 0;
}

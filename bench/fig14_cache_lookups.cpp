/**
 * @file
 * Figure 14 (+ Section VII.E): L1i cache lookups normalized to the
 * no-prefetcher baseline, and the RLU-size sweep showing 8 entries
 * suffice.  Paper: Confluence lowest; ours ~ Shotgun.
 */

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace dcfb;
    bench::Harness h(argc, argv, "Fig. 14 - cache lookups, normalized to baseline",
                  "Confluence lowest; SN4L+Dis+BTB ~ Shotgun; RLU=8 enough");

    std::vector<exec::Variant> variants{{"Baseline", sim::Preset::Baseline}};
    for (unsigned rlu : {0u, 4u, 8u, 16u}) {
        variants.push_back(
            {rlu ? "SN4L+Dis+BTB (RLU=" + std::to_string(rlu) + ")"
                 : std::string("SN4L+Dis+BTB (no RLU)"),
             sim::Preset::SN4LDisBtb,
             [rlu](sim::SystemConfig &cfg) { cfg.sn4l.rluEntries = rlu; }});
    }
    variants.push_back({"Shotgun", sim::Preset::Shotgun});
    variants.push_back({"Confluence", sim::Preset::Confluence});
    auto grid = exec::runGrid("fig14 lookup grid", bench::allWorkloads(),
                              std::move(variants), sim::RunWindows{});
    auto lookups = [](const sim::RunResult &res) {
        return static_cast<double>(res.stat("l1i.l1i_lookups"));
    };

    double base = grid.mean(0, lookups);
    sim::Table table({"design", "lookups (norm.)"});
    table.addRow({"Baseline", "1.00"});
    for (std::size_t v = 1; v < grid.variants().size(); ++v) {
        table.addRow({grid.variants()[v],
                      sim::Table::num(grid.mean(v, lookups) / base)});
    }
    h.report(table, "Number of cache lookups, normalized to baseline");
    return 0;
}

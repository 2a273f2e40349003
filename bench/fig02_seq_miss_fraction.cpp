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
    double sum = 0.0;
    auto names = bench::allWorkloads();
    std::vector<sim::SystemConfig> cfgs;
    for (const auto &name : names) {
        cfgs.push_back(sim::makeConfig(workload::serverProfile(name),
                                       sim::Preset::Baseline));
    }
    auto results = bench::simulateAll("fig02 Baseline", std::move(cfgs),
                                      bench::windows());
    for (std::size_t i = 0; i < names.size(); ++i) {
        const auto &name = names[i];
        const auto &res = results[i];
        double frac = res.ratio("l1i.l1i_seq_misses", "l1i.l1i_misses");
        sum += frac;
        table.addRow({name, std::to_string(res.stat("l1i.l1i_misses")),
                      std::to_string(res.stat("l1i.l1i_seq_misses")),
                      sim::Table::pct(frac)});
    }
    table.addRow({"Average", "", "",
                  sim::Table::pct(sum / static_cast<double>(names.size()))});
    h.report(table, "Fraction of sequential cache misses");
    return 0;
}

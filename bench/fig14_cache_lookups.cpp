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

    struct Design
    {
        const char *label;
        sim::Preset preset;
        unsigned rlu;
    };
    const Design designs[] = {
        {"Baseline", sim::Preset::Baseline, 8},
        {"SN4L+Dis+BTB (no RLU)", sim::Preset::SN4LDisBtb, 0},
        {"SN4L+Dis+BTB (RLU=4)", sim::Preset::SN4LDisBtb, 4},
        {"SN4L+Dis+BTB (RLU=8)", sim::Preset::SN4LDisBtb, 8},
        {"SN4L+Dis+BTB (RLU=16)", sim::Preset::SN4LDisBtb, 16},
        {"Shotgun", sim::Preset::Shotgun, 8},
        {"Confluence", sim::Preset::Confluence, 8},
    };
    auto names = bench::allWorkloads();
    std::vector<sim::SystemConfig> cfgs;
    for (const auto &name : names) {
        for (const auto &d : designs) {
            auto cfg = sim::makeConfig(workload::serverProfile(name),
                                       d.preset);
            if (d.rlu != 8)
                cfg.sn4l.rluEntries = d.rlu;
            cfgs.push_back(std::move(cfg));
        }
    }
    auto results = bench::simulateAll("fig14 lookup grid", std::move(cfgs),
                                      bench::windows());
    auto avg_lookups = [&](std::size_t d) {
        double sum = 0.0;
        for (std::size_t w = 0; w < names.size(); ++w) {
            const auto &res = results[w * std::size(designs) + d];
            sum += static_cast<double>(res.stat("l1i.l1i_lookups"));
        }
        return sum / static_cast<double>(names.size());
    };

    double base = avg_lookups(0);
    sim::Table table({"design", "lookups (norm.)"});
    table.addRow({"Baseline", "1.00"});
    for (std::size_t d = 1; d < std::size(designs); ++d) {
        table.addRow(
            {designs[d].label, sim::Table::num(avg_lookups(d) / base)});
    }
    h.report(table, "Number of cache lookups, normalized to baseline");
    return 0;
}

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
    double sum = 0.0;
    auto names = bench::allWorkloads();
    std::vector<sim::SystemConfig> cfgs;
    for (const auto &name : names) {
        auto profile = workload::serverProfile(name);
        cfgs.push_back(sim::makeConfig(profile, sim::Preset::Baseline));
        cfgs.push_back(sim::makeConfig(profile, sim::Preset::NL));
    }
    auto results = bench::simulateAll("fig03 Baseline vs NL",
                                      std::move(cfgs), bench::windows());
    for (std::size_t i = 0; i < names.size(); ++i) {
        const auto &name = names[i];
        const auto &base = results[2 * i];
        const auto &nl = results[2 * i + 1];
        double b = static_cast<double>(base.stat("l1i.l1i_seq_misses"));
        double n = static_cast<double>(nl.stat("l1i.l1i_seq_misses"));
        double cov = b > 0 ? std::max(0.0, 1.0 - n / b) : 0.0;
        sum += cov;
        table.addRow({name, std::to_string(base.stat("l1i.l1i_seq_misses")),
                      std::to_string(nl.stat("l1i.l1i_seq_misses")),
                      sim::Table::pct(cov)});
    }
    table.addRow({"Average", "", "",
                  sim::Table::pct(sum / static_cast<double>(names.size()))});
    h.report(table, "NL sequential miss coverage");
    return 0;
}

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

    const sim::Preset depths[] = {sim::Preset::NL, sim::Preset::N2L,
                                  sim::Preset::N4L, sim::Preset::N8L};
    sim::Table table({"design", "CMAL (avg over workloads)",
                      "ext. requests (avg)"});
    // Workload-major, so each workload's designs share one warmup.
    auto names = bench::allWorkloads();
    std::vector<sim::SystemConfig> cfgs;
    for (const auto &name : names) {
        for (auto preset : depths)
            cfgs.push_back(
                sim::makeConfig(workload::serverProfile(name), preset));
    }
    auto results = bench::simulateAll("fig04 NXL grid", std::move(cfgs),
                                      bench::windows());
    for (std::size_t p = 0; p < std::size(depths); ++p) {
        auto preset = depths[p];
        double sum = 0.0;
        std::uint64_t reqs = 0;
        for (std::size_t w = 0; w < names.size(); ++w) {
            const auto &res = results[w * std::size(depths) + p];
            sum += res.cmal();
            reqs += res.stat("l1i.l1i_external_requests");
        }
        table.addRow({sim::presetName(preset),
                      sim::Table::pct(sum / 7.0),
                      std::to_string(reqs / 7)});
    }
    h.report(table, "Covered Memory Access Latency (CMAL)");
    return 0;
}

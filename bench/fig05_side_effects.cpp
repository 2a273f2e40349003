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

    const sim::Preset presets[] = {sim::Preset::Baseline, sim::Preset::NL,
                                   sim::Preset::N2L, sim::Preset::N4L,
                                   sim::Preset::N8L};
    auto names = bench::allWorkloads();
    std::vector<sim::SystemConfig> cfgs;
    for (const auto &name : names) {
        for (auto preset : presets)
            cfgs.push_back(
                sim::makeConfig(workload::serverProfile(name), preset));
    }
    auto results = bench::simulateAll("fig05 NXL grid", std::move(cfgs),
                                      bench::windows());
    auto run_avg = [&](std::size_t p, double &llc_lat, double &bw) {
        llc_lat = 0.0;
        bw = 0.0;
        for (std::size_t w = 0; w < names.size(); ++w) {
            const auto &res = results[w * std::size(presets) + p];
            llc_lat += res.ratio("llc.llc_latency_sum", "llc.llc_accesses");
            bw += static_cast<double>(
                res.stat("l1i.l1i_external_requests"));
        }
        llc_lat /= static_cast<double>(names.size());
        bw /= static_cast<double>(names.size());
    };

    double base_lat = 0.0, base_bw = 0.0;
    run_avg(0, base_lat, base_bw);

    sim::Table table({"design", "LLC latency (norm.)",
                      "L1i ext. bandwidth (norm.)"});
    table.addRow({"Baseline", "1.00", "1.00"});
    for (std::size_t p = 1; p < std::size(presets); ++p) {
        double lat = 0.0, bw = 0.0;
        run_avg(p, lat, bw);
        table.addRow({sim::presetName(presets[p]),
                      sim::Table::num(lat / base_lat),
                      sim::Table::num(bw / base_bw)});
    }
    h.report(table, "LLC latency and L1i external bandwidth (normalized)");
    return 0;
}

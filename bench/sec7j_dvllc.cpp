/**
 * @file
 * Section VII.J: variable-length ISA support via DV-LLC.  The paper
 * reports that virtualizing branch footprints in the LRU way leaves the
 * LLC instruction hit ratio unchanged, costs at most 0.1 % of the data
 * hit ratio, and preserves the prefetcher's speedup.
 */

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace dcfb;
    bench::Harness h(argc, argv, "Sec. VII.J - DV-LLC on the variable-length ISA",
                  "instr hit ratio unchanged; data hit ratio -0.1% worst; "
                  "same speedup");

    sim::Table table({"workload", "instr hit (conv)", "instr hit (DV)",
                      "data hit (conv)", "data hit (DV)",
                      "speedup (conv)", "speedup (DV)"});
    // Per workload: conventional-LLC Baseline and SN4L+Dis+BTB, then
    // SN4L+Dis+BTB on the DV-LLC.
    auto names = bench::sweepWorkloads();
    std::vector<sim::SystemConfig> cfgs;
    for (const auto &name : names) {
        auto profile = workload::serverProfile(name, /*vl=*/true);
        for (auto preset : {sim::Preset::Baseline, sim::Preset::SN4LDisBtb}) {
            auto cfg = sim::makeConfig(profile, preset);
            cfg.llc.dvllc = false;
            cfg.l1i.fetchFootprints = false;
            cfgs.push_back(std::move(cfg));
        }
        cfgs.push_back(sim::makeConfig(profile, sim::Preset::SN4LDisBtb));
    }
    auto results = bench::simulateAll("sec7j DV-LLC grid", std::move(cfgs),
                                      bench::windows());
    for (std::size_t w = 0; w < names.size(); ++w) {
        const auto &name = names[w];
        const auto &base = results[3 * w];
        const auto &conv = results[3 * w + 1];
        const auto &dv = results[3 * w + 2];
        table.addRow(
            {name,
             sim::Table::pct(conv.ratio("llc.llc_instr_hits",
                                        "llc.llc_instr_accesses")),
             sim::Table::pct(dv.ratio("llc.llc_instr_hits",
                                      "llc.llc_instr_accesses")),
             sim::Table::pct(conv.ratio("llc.llc_data_hits",
                                        "llc.llc_data_accesses")),
             sim::Table::pct(dv.ratio("llc.llc_data_hits",
                                      "llc.llc_data_accesses")),
             sim::Table::num(sim::speedup(conv, base), 3),
             sim::Table::num(sim::speedup(dv, base), 3)});
    }
    h.report(table, "DV-LLC vs. conventional LLC (VL-ISA workloads)");
    return 0;
}

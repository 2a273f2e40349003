/**
 * @file
 * Table I: fraction of cycles the core is stalled on an empty FTQ under
 * Shotgun.  Paper: 1.64 % (OLTP DB B) to 18.87 % (OLTP DB A).
 */

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace dcfb;
    bench::Harness h(argc, argv, "Table I - empty-FTQ stall cycles in Shotgun",
                  "1.6-18.9% of cycles; OLTP (DB A) worst");

    sim::Table table({"workload", "empty-FTQ stall fraction",
                      "BPU stall cycles"});
    auto names = bench::allWorkloads();
    std::vector<sim::SystemConfig> cfgs;
    for (const auto &name : names) {
        cfgs.push_back(sim::makeConfig(workload::serverProfile(name),
                                       sim::Preset::Shotgun));
    }
    auto results = bench::simulateAll("tab01 Shotgun", std::move(cfgs),
                                      bench::windows());
    for (std::size_t i = 0; i < names.size(); ++i) {
        const auto &name = names[i];
        const auto &res = results[i];
        double frac =
            static_cast<double>(res.stat("fe.fe_empty_ftq_stall_cycles")) /
            static_cast<double>(res.cycles);
        table.addRow({name, sim::Table::pct(frac),
                      std::to_string(res.stat("fe.bpu_stall_cycles"))});
    }
    h.report(table, "Empty-FTQ stall cycles in Shotgun");
    return 0;
}

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
    auto grid = exec::runGrid("tab01 Shotgun", bench::allWorkloads(),
                              exec::presetVariants({sim::Preset::Shotgun}),
                              sim::RunWindows{});
    for (std::size_t w = 0; w < grid.workloads().size(); ++w) {
        const auto &res = grid.at(w, 0);
        double frac =
            static_cast<double>(res.stat("fe.fe_empty_ftq_stall_cycles")) /
            static_cast<double>(res.cycles);
        table.addRow({grid.workloads()[w], sim::Table::pct(frac),
                      std::to_string(res.stat("fe.bpu_stall_cycles"))});
    }
    h.report(table, "Empty-FTQ stall cycles in Shotgun");
    return 0;
}

/**
 * @file
 * Figure 9: fraction of branch footprints left uncovered as a function
 * of the number of BFs stored per LLC set (DV-LLC).  Paper: 2 slots ->
 * ~2 % uncovered, 4 slots -> ~0.2 %.
 */

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace dcfb;
    bench::Harness h(argc, argv, "Fig. 9 - uncovered BFs vs. BF slots per LLC set",
                  "2 slots ~2%, 3 ~0.4%, 4 ~0.2% uncovered");

    sim::Table table({"BF slots/set", "BF fetches", "uncovered",
                      "uncovered fraction"});
    std::vector<exec::Variant> variants;
    for (unsigned slots : {1u, 2u, 3u, 4u}) {
        variants.push_back({std::to_string(slots), sim::Preset::SN4LDisBtb,
                            [slots](sim::SystemConfig &cfg) {
            cfg.llc.bfSlotsPerSet = slots;
            // Use a 2 MB LLC so several instruction blocks share a set;
            // at 32 MB the per-set instruction population is < 1 and
            // slot pressure never materializes.
            cfg.llc.capacityBytes = 2ull << 20;
        }});
    }
    auto grid = exec::runGrid("fig09 BF slot sweep", bench::sweepWorkloads(),
                              std::move(variants), sim::RunWindows{}, 0,
                              /*vl=*/true);
    for (std::size_t v = 0; v < grid.variants().size(); ++v) {
        std::uint64_t fetches = grid.total(v, "llc.bf_fetch_attempts");
        std::uint64_t uncovered = grid.total(v, "llc.bf_fetch_uncovered");
        double frac = fetches
            ? static_cast<double>(uncovered) / static_cast<double>(fetches)
            : 0.0;
        table.addRow({grid.variants()[v], std::to_string(fetches),
                      std::to_string(uncovered), sim::Table::pct(frac, 2)});
    }
    h.report(table, "Uncovered branch footprints per BF-slot budget "
                "(VL-ISA workloads)");
    return 0;
}

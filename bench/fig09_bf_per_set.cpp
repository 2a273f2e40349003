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
    const unsigned slot_counts[] = {1u, 2u, 3u, 4u};
    auto names = bench::sweepWorkloads();
    std::vector<sim::SystemConfig> cfgs;
    for (unsigned slots : slot_counts) {
        for (const auto &name : names) {
            auto profile = workload::serverProfile(name, /*vl=*/true);
            auto cfg =
                sim::makeConfig(profile, sim::Preset::SN4LDisBtb);
            cfg.llc.bfSlotsPerSet = slots;
            // Use a 2 MB LLC so several instruction blocks share a set;
            // at 32 MB the per-set instruction population is < 1 and
            // slot pressure never materializes.
            cfg.llc.capacityBytes = 2ull << 20;
            cfgs.push_back(std::move(cfg));
        }
    }
    auto results = bench::simulateAll("fig09 BF slot sweep", std::move(cfgs),
                                      bench::windows());
    for (std::size_t s = 0; s < std::size(slot_counts); ++s) {
        unsigned slots = slot_counts[s];
        std::uint64_t fetches = 0, uncovered = 0;
        for (std::size_t w = 0; w < names.size(); ++w) {
            const auto &res = results[s * names.size() + w];
            fetches += res.stat("llc.bf_fetch_attempts");
            uncovered += res.stat("llc.bf_fetch_uncovered");
        }
        double frac = fetches
            ? static_cast<double>(uncovered) / static_cast<double>(fetches)
            : 0.0;
        table.addRow({std::to_string(slots), std::to_string(fetches),
                      std::to_string(uncovered), sim::Table::pct(frac, 2)});
    }
    h.report(table, "Uncovered branch footprints per BF-slot budget "
                "(VL-ISA workloads)");
    return 0;
}

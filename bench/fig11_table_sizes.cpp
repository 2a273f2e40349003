/**
 * @file
 * Figure 11: miss coverage of SN4L vs. SeqTable size and of SN4L+Dis
 * vs. DisTable size, each against the unlimited-table reference.
 * Paper: 16 K-entry SeqTable reaches 96 % of unlimited; 4 K-entry
 * DisTable reaches 97 % of its maximum.
 */

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace dcfb;
    bench::Harness h(argc, argv, "Fig. 11 - miss coverage vs. metadata table size",
                  "16K SeqTable ~ 96% of unlimited; 4K DisTable ~ 97%");

    // Column 0 is the no-prefetcher baseline both sweeps measure
    // coverage against; then one column per (table, size) point.
    const std::vector<std::size_t> seq_sizes{256, 1024, 4096, 16384,
                                             65536, 0};
    const std::vector<std::size_t> dis_sizes{64, 128, 256, 1024, 4096, 0};
    auto size_label = [](std::size_t entries) {
        return entries ? std::to_string(entries) : std::string("unlimited");
    };
    auto sized = [](sim::Preset preset, std::string label,
                    std::size_t seq_entries, std::size_t dis_entries) {
        return exec::Variant{std::move(label), preset,
                             [=](sim::SystemConfig &cfg) {
            cfg.sn4l.seqTableEntries = seq_entries;
            cfg.sn4l.disTable.entries = dis_entries;
        }};
    };
    std::vector<exec::Variant> variants{
        {"Baseline", sim::Preset::Baseline}};
    for (std::size_t entries : seq_sizes) {
        variants.push_back(sized(sim::Preset::SN4L,
                                 "SeqTable " + size_label(entries), entries,
                                 4096));
    }
    for (std::size_t entries : dis_sizes) {
        variants.push_back(sized(sim::Preset::SN4LDis,
                                 "DisTable " + size_label(entries), 16384,
                                 entries));
    }
    auto grid = exec::runGrid("fig11 table-size sweep",
                              bench::sweepWorkloads(), std::move(variants),
                              sim::RunWindows{});
    auto coverage = [](const sim::RunResult &res,
                       const sim::RunResult &base) {
        return res.coverage(base.stat("l1i.l1i_misses"));
    };

    sim::Table seq({"SeqTable entries", "SN4L coverage (avg)"});
    for (std::size_t i = 0; i < seq_sizes.size(); ++i) {
        seq.addRow({size_label(seq_sizes[i]),
                    sim::Table::pct(grid.mean(1 + i, 0, coverage))});
    }
    h.report(seq, "SN4L miss coverage vs. SeqTable size");

    sim::Table dis({"DisTable entries", "SN4L+Dis coverage (avg)"});
    for (std::size_t i = 0; i < dis_sizes.size(); ++i) {
        dis.addRow({size_label(dis_sizes[i]),
                    sim::Table::pct(grid.mean(1 + seq_sizes.size() + i, 0,
                                              coverage))});
    }
    h.report(dis, "SN4L+Dis miss coverage vs. DisTable size");
    return 0;
}

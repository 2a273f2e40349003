/**
 * @file
 * Figure 12 (+ Section VII.C): DisTable overprediction under tagless,
 * 4-bit partial, and full tags, plus the SeqTable conflict statistics
 * (paper: 28 % conflicts yet 92 % correct predictions).
 */

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace dcfb;
    bench::Harness h(argc, argv, "Fig. 12 - DisTable tagging policy overprediction",
                  "tagless >> 4-bit partial ~ full tag");

    // One SN4L+Dis column per tagging policy, then the SN4L column of
    // the SeqTable companion.
    std::vector<exec::Variant> variants;
    for (auto [label, policy] :
         {std::pair{"tagless", prefetch::DisTagPolicy::Tagless},
          std::pair{"4-bit partial", prefetch::DisTagPolicy::Partial4},
          std::pair{"full tag", prefetch::DisTagPolicy::Full}}) {
        variants.push_back({label, sim::Preset::SN4LDis,
                            [policy](sim::SystemConfig &cfg) {
            cfg.sn4l.disTable.tagPolicy = policy;
        }});
    }
    const std::size_t seq_column = variants.size();
    variants.push_back({"SN4L", sim::Preset::SN4L});
    auto grid = exec::runGrid("fig12 tagging grid", bench::allWorkloads(),
                              std::move(variants), sim::RunWindows{});

    sim::Table table({"policy", "DisTable hits", "overpredictions",
                      "overprediction rate"});
    for (std::size_t v = 0; v < seq_column; ++v) {
        std::uint64_t wrong = grid.total(v, "pf.dis_replay_not_branch");
        std::uint64_t hits = grid.total(v, "pf.dis_candidates") + wrong +
            grid.total(v, "pf.dis_replay_no_target");
        double rate = hits ? static_cast<double>(wrong) /
                static_cast<double>(hits)
                           : 0.0;
        table.addRow({grid.variants()[v], std::to_string(hits),
                      std::to_string(wrong), sim::Table::pct(rate, 2)});
    }
    h.report(table, "DisTable overprediction by tagging policy");

    // Section VII.C companion: SeqTable conflict behaviour.
    std::uint64_t writes = grid.total(seq_column, "pf.seqtable_writes");
    std::uint64_t conflicts = grid.total(seq_column, "pf.seqtable_conflicts");
    sim::Table seq({"SeqTable writes", "conflicts", "conflict ratio"});
    seq.addRow({std::to_string(writes), std::to_string(conflicts),
                sim::Table::pct(writes ? static_cast<double>(conflicts) /
                                        static_cast<double>(writes)
                                       : 0.0)});
    h.report(seq, "Section VII.C - SeqTable conflict ratio (paper: 28%)");
    return 0;
}

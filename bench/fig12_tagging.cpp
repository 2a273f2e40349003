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

    const std::pair<const char *, prefetch::DisTagPolicy> policies[] = {
        {"tagless", prefetch::DisTagPolicy::Tagless},
        {"4-bit partial", prefetch::DisTagPolicy::Partial4},
        {"full tag", prefetch::DisTagPolicy::Full},
    };

    // Per workload: one SN4L+Dis cell per tagging policy, then the SN4L
    // cell of the SeqTable companion.  Workload-major, so each
    // workload's cells share one warmup.
    const std::size_t per_workload = std::size(policies) + 1;
    auto names = bench::allWorkloads();
    std::vector<sim::SystemConfig> cfgs;
    for (const auto &name : names) {
        auto profile = workload::serverProfile(name);
        for (const auto &[label, policy] : policies) {
            auto cfg = sim::makeConfig(profile, sim::Preset::SN4LDis);
            cfg.sn4l.disTable.tagPolicy = policy;
            cfgs.push_back(std::move(cfg));
        }
        cfgs.push_back(sim::makeConfig(profile, sim::Preset::SN4L));
    }
    auto results = bench::simulateAll("fig12 tagging grid", std::move(cfgs),
                                      bench::windows());

    sim::Table table({"policy", "DisTable hits", "overpredictions",
                      "overprediction rate"});
    for (std::size_t p = 0; p < std::size(policies); ++p) {
        const char *label = policies[p].first;
        std::uint64_t hits = 0, wrong = 0;
        for (std::size_t w = 0; w < names.size(); ++w) {
            const auto &res = results[w * per_workload + p];
            std::uint64_t h = res.stat("pf.dis_candidates") +
                res.stat("pf.dis_replay_not_branch") +
                res.stat("pf.dis_replay_no_target");
            hits += h;
            wrong += res.stat("pf.dis_replay_not_branch");
        }
        double rate = hits ? static_cast<double>(wrong) /
                static_cast<double>(hits)
                           : 0.0;
        table.addRow({label, std::to_string(hits), std::to_string(wrong),
                      sim::Table::pct(rate, 2)});
    }
    h.report(table, "DisTable overprediction by tagging policy");

    // Section VII.C companion: SeqTable conflict behaviour.
    std::uint64_t writes = 0, conflicts = 0;
    for (std::size_t w = 0; w < names.size(); ++w) {
        const auto &res = results[w * per_workload + std::size(policies)];
        writes += res.stat("pf.seqtable_writes");
        conflicts += res.stat("pf.seqtable_conflicts");
    }
    sim::Table seq({"SeqTable writes", "conflicts", "conflict ratio"});
    seq.addRow({std::to_string(writes), std::to_string(conflicts),
                sim::Table::pct(writes ? static_cast<double>(conflicts) /
                                        static_cast<double>(writes)
                                       : 0.0)});
    h.report(seq, "Section VII.C - SeqTable conflict ratio (paper: 28%)");
    return 0;
}

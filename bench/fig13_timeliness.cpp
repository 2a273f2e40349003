/**
 * @file
 * Figure 13: prefetch timeliness (CMAL) of N4L, SN4L, Dis and
 * SN4L+Dis+BTB.  Paper: 88 / 93 / 89 / 91 %.  Includes the proactive-
 * depth ablation called out in DESIGN.md.
 */

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace dcfb;
    bench::Harness h(argc, argv, "Fig. 13 - timeliness (CMAL) of the proposed designs",
                  "N4L 88%, SN4L 93%, Dis 89%, SN4L+Dis+BTB 91%");

    auto cmal = exec::runGrid(
        "fig13 CMAL grid", bench::allWorkloads(),
        exec::presetVariants({sim::Preset::N4LPlain, sim::Preset::SN4L,
                              sim::Preset::DisOnly,
                              sim::Preset::SN4LDisBtb}),
        sim::RunWindows{});

    sim::Table table({"design", "CMAL (avg)"});
    for (std::size_t v = 0; v < cmal.variants().size(); ++v) {
        table.addRow({cmal.variants()[v],
                      sim::Table::pct(cmal.mean(v, &sim::RunResult::cmal))});
    }
    h.report(table, "Timeliness of different prefetchers");

    // Two ablations of SN4L+Dis+BTB over one no-prefetcher baseline
    // column: the proactive chain depth limit (paper picks 4), and SN1L
    // vs. SN4L for the sequential tails of discontinuity regions (the
    // paper chooses SN1L to protect accuracy at depth).
    const std::vector<unsigned> limits{1, 2, 4, 8};
    std::vector<exec::Variant> variants{{"Baseline", sim::Preset::Baseline}};
    for (unsigned limit : limits) {
        variants.push_back({"chain depth " + std::to_string(limit),
                            sim::Preset::SN4LDisBtb,
                            [limit](sim::SystemConfig &cfg) {
            cfg.sn4l.chainDepthLimit = limit;
        }});
    }
    const std::size_t tail_column = variants.size();
    for (bool sn1l : {true, false}) {
        variants.push_back({sn1l ? "SN1L tails (paper)" : "SN4L tails",
                            sim::Preset::SN4LDisBtb,
                            [sn1l](sim::SystemConfig &cfg) {
            cfg.sn4l.sn1lTails = sn1l;
        }});
    }
    auto ablation = exec::runGrid("fig13 ablations", bench::sweepWorkloads(),
                                  std::move(variants), sim::RunWindows{});

    sim::Table depth({"chain depth limit", "CMAL (avg)", "speedup (avg)"});
    for (std::size_t i = 0; i < limits.size(); ++i) {
        depth.addRow(
            {std::to_string(limits[i]),
             sim::Table::pct(ablation.mean(1 + i, &sim::RunResult::cmal)),
             sim::Table::num(ablation.mean(1 + i, 0, sim::speedup), 3)});
    }
    h.report(depth, "Ablation: proactive chain depth limit");

    auto pf_accuracy = [](const sim::RunResult &res) {
        return res.ratio("l1i.pf_useful", "l1i.pf_issued");
    };
    sim::Table tails({"tail policy", "pf accuracy (avg)", "speedup (avg)"});
    for (std::size_t v = tail_column; v < ablation.variants().size(); ++v) {
        tails.addRow(
            {ablation.variants()[v],
             sim::Table::pct(ablation.mean(v, pf_accuracy)),
             sim::Table::num(ablation.mean(v, 0, sim::speedup), 3)});
    }
    h.report(tails, "Ablation: sequential-tail depth beyond discontinuities");
    return 0;
}

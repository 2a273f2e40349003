/**
 * @file
 * Example: the variable-length-ISA flow of Section V.D end to end -
 * byte-offset DisTable entries, branch footprints constructed from the
 * retired stream, DV-LLC virtualization, and footprint-guided
 * pre-decoding feeding the BTB prefetch buffer.
 */

#include <cstdio>

#include "sim/report.h"
#include "sim/simulator.h"
#include "sim/system.h"
#include "workload/profiles.h"

int
main()
{
    using namespace dcfb;

    auto profile = workload::serverProfile("Web (Apache)", /*vl=*/true);
    auto cfg = sim::makeConfig(profile, sim::Preset::SN4LDisBtb);
    std::printf("VL-ISA mode: dvllc=%d fetchFootprints=%d "
                "byteOffsets=%d\n",
                cfg.llc.dvllc, cfg.l1i.fetchFootprints,
                cfg.sn4l.disTable.byteOffsets);

    auto res = sim::simulate(cfg);

    sim::Table table({"metric", "value"});
    table.addRow({"IPC", sim::Table::num(res.ipc())});
    table.addRow({"BF records (retired stream)",
                  std::to_string(res.stat("llc.bf_branches_recorded"))});
    table.addRow({"BF fetches with block",
                  std::to_string(res.stat("llc.bf_fetch_attempts"))});
    table.addRow({"BF fetch hits",
                  std::to_string(res.stat("llc.bf_fetch_hits"))});
    table.addRow({"uncovered BFs",
                  std::to_string(res.stat("llc.bf_fetch_uncovered"))});
    table.addRow({"BTB prefill blocks (footprint-guided)",
                  std::to_string(res.stat("pf.btb_prefill_blocks"))});
    table.addRow({"prefills blocked by missing BF",
                  std::to_string(res.stat("pf.btb_prefill_no_footprint"))});
    table.addRow({"DV-LLC holder sets (activations)",
                  std::to_string(res.stat("llc.dvllc_holder_activations"))});
    table.print("VL-ISA / DV-LLC metrics on Web (Apache)");
    return 0;
}

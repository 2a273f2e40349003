/**
 * @file
 * The golden-result corpus cell list, shared between the generator
 * (`tools/dcfb_golden.cpp`, via `scripts/update_golden.py`) and the
 * regression test (`tests/test_golden.cpp`).
 *
 * Nineteen (workload, preset) cells covering all sixteen presets
 * and so every prefetcher family the paper evaluates -- sequential
 * (NL/N2L/N4L/N8L, the unselective N4L engine, SN4L), discontinuity,
 * BTB-directed (Shotgun), Confluence, the competitor designs
 * (FDIP and the micro BTB), the combined proposal, the perfect
 * frontends, and one variable-length-ISA flavour so the VL decode path
 * is pinned too.  Each cell's RunResult JSON is committed under
 * `tests/golden/`; `test_golden.cpp` asserts that re-simulating the cell
 * reproduces the committed result *bit for bit* (RunResult::operator==
 * over every counter and histogram).  That equality is what licenses
 * hot-path optimization of the simulator core: any change that alters
 * one counter in one cell fails the suite.
 *
 * The corpus deliberately uses shorter windows than the benches (the
 * point is covering code paths, not paper-scale measurements); the
 * windows and warmup length are part of the pinned contract and must
 * never change without regenerating the corpus via
 * `scripts/update_golden.py` (which refuses to run on a dirty tree).
 */

#ifndef DCFB_TESTS_GOLDEN_CELLS_H
#define DCFB_TESTS_GOLDEN_CELLS_H

#include <string>
#include <vector>

#include "sim/config.h"
#include "sim/simulator.h"
#include "workload/profiles.h"

namespace dcfb::golden {

/** One pinned corpus cell. */
struct Cell
{
    const char *workload; //!< server-profile name (Table IV)
    sim::Preset preset;   //!< evaluated design
    bool vl = false;      //!< variable-length-ISA flavour
};

/** The nineteen pinned cells. */
inline std::vector<Cell>
cells()
{
    using sim::Preset;
    return {
        {"Media Streaming", Preset::Baseline},
        {"OLTP (DB A)", Preset::SN4LDisBtb},
        {"OLTP (DB B)", Preset::NL},
        {"Web (Apache)", Preset::SN4L},
        {"Web (Zeus)", Preset::DisOnly},
        {"Web Frontend", Preset::SN4LDis},
        {"Web Search", Preset::Shotgun},
        {"OLTP (DB A)", Preset::Confluence},
        {"Web Frontend", Preset::PerfectL1iBtb},
        {"Web Search", Preset::SN4LDisBtb, /*vl=*/true},
        {"OLTP (DB A)", Preset::Fdip},
        {"Web Frontend", Preset::Fdip},
        {"OLTP (DB A)", Preset::MicroBtb},
        {"Web Frontend", Preset::MicroBtb},
        {"Web (Zeus)", Preset::N2L},
        {"OLTP (DB B)", Preset::N4L},
        {"Media Streaming", Preset::N8L},
        {"Web (Apache)", Preset::N4LPlain},
        {"Web Search", Preset::PerfectL1i},
    };
}

/** Pinned run windows (short: coverage, not measurement). */
inline sim::RunWindows
windows()
{
    return sim::RunWindows{30000, 40000};
}

/** The cell's full SystemConfig (pinned warmup, default seed/faults). */
inline sim::SystemConfig
config(const Cell &cell)
{
    sim::SystemConfig cfg =
        sim::makeConfig(workload::serverProfile(cell.workload, cell.vl),
                        cell.preset);
    cfg.functionalWarmInstrs = 250000;
    cfg.faults = rt::FaultPlan{}; // corpus is always uninjected
    return cfg;
}

/** Stable on-disk name, e.g. "oltp_db_a-sn4l_dis_btb.json". */
inline std::string
fileName(const Cell &cell)
{
    auto slug = [](const std::string &s) {
        std::string out;
        bool gap = false;
        for (char c : s) {
            if (std::isalnum(static_cast<unsigned char>(c))) {
                if (gap && !out.empty())
                    out += '_';
                gap = false;
                out += static_cast<char>(
                    std::tolower(static_cast<unsigned char>(c)));
            } else {
                gap = true;
            }
        }
        return out;
    };
    std::string name =
        slug(cell.workload) + "-" + slug(sim::presetName(cell.preset));
    if (cell.vl)
        name += "-vl";
    return name + ".json";
}

} // namespace dcfb::golden

#endif // DCFB_TESTS_GOLDEN_CELLS_H

/**
 * @file
 * The one list of every evaluated design preset, for the tests that
 * must cover all of them (the all-presets property sweep, the
 * profiled-vs-plain parity check, the parallel-grid parity check and
 * the warm-window leak test).  Add a new preset here and every such
 * test picks it up.
 */

#ifndef DCFB_TESTS_ALL_PRESETS_H
#define DCFB_TESTS_ALL_PRESETS_H

#include <vector>

#include "sim/config.h"

namespace dcfb::test {

/** Every sim::Preset, in declaration order. */
inline std::vector<sim::Preset>
allPresets()
{
    using sim::Preset;
    return {Preset::Baseline,   Preset::NL,
            Preset::N2L,        Preset::N4L,
            Preset::N8L,        Preset::N4LPlain,
            Preset::SN4L,       Preset::DisOnly,
            Preset::SN4LDis,    Preset::SN4LDisBtb,
            Preset::Confluence, Preset::Shotgun,
            Preset::PerfectL1i, Preset::PerfectL1iBtb,
            Preset::Fdip,       Preset::MicroBtb};
}

} // namespace dcfb::test

#endif // DCFB_TESTS_ALL_PRESETS_H

#include "sim/config.h"

namespace dcfb::sim {

namespace {
rt::FaultPlan gDefaultFaultPlan; // inactive unless --inject installs one
} // namespace

void
setDefaultFaultPlan(const rt::FaultPlan &plan)
{
    gDefaultFaultPlan = plan;
}

const rt::FaultPlan &
defaultFaultPlan()
{
    return gDefaultFaultPlan;
}

std::string
presetName(Preset preset)
{
    switch (preset) {
      case Preset::Baseline: return "Baseline";
      case Preset::NL: return "NL";
      case Preset::N2L: return "N2L";
      case Preset::N4L: return "N4L";
      case Preset::N8L: return "N8L";
      case Preset::N4LPlain: return "N4L(engine)";
      case Preset::SN4L: return "SN4L";
      case Preset::DisOnly: return "Dis";
      case Preset::SN4LDis: return "SN4L+Dis";
      case Preset::SN4LDisBtb: return "SN4L+Dis+BTB";
      case Preset::ClassicDis: return "ClassicDis";
      case Preset::Confluence: return "Confluence";
      case Preset::Boomerang: return "Boomerang";
      case Preset::Shotgun: return "Shotgun";
      case Preset::PerfectL1i: return "PerfectL1i";
      case Preset::PerfectL1iBtb: return "PerfectL1i+BTBinf";
      case Preset::Fdip: return "FDIP";
      case Preset::MicroBtb: return "MicroBTB";
    }
    return "?";
}

SystemConfig
makeConfig(const workload::WorkloadProfile &profile, Preset preset)
{
    SystemConfig cfg;
    cfg.profile = profile;
    cfg.preset = preset;
    cfg.faults = defaultFaultPlan();

    switch (preset) {
      case Preset::NL:
      case Preset::N2L:
      case Preset::N4L:
      case Preset::N8L:
        // The NXL motivation studies use a 64-entry prefetch buffer to
        // immunize the L1i from pollution (Section IV).
        cfg.l1i.usePrefetchBuffer = true;
        break;
      case Preset::N4LPlain:
        cfg.sn4l.selective = false;
        cfg.sn4l.enableDis = false;
        cfg.sn4l.enableBtbPrefetch = false;
        cfg.sn4l.proactive = false;
        break;
      case Preset::SN4L:
        cfg.sn4l.enableDis = false;
        cfg.sn4l.enableBtbPrefetch = false;
        cfg.sn4l.proactive = false;
        break;
      case Preset::DisOnly:
        cfg.sn4l.seqDepth = 0;
        cfg.sn4l.enableBtbPrefetch = false;
        break;
      case Preset::SN4LDis:
        cfg.sn4l.enableBtbPrefetch = false;
        break;
      case Preset::Confluence:
        // Upper-bound Confluence: SHIFT + 16 K-entry BTB (Section VI.D).
        cfg.btbEntries = 16 * 1024;
        break;
      case Preset::Shotgun:
        cfg.l1i.usePrefetchBuffer = true; //!< 64-entry L1i prefetch buffer
        break;
      case Preset::PerfectL1i:
        cfg.fetch.perfectL1i = true;
        break;
      case Preset::PerfectL1iBtb:
        cfg.fetch.perfectL1i = true;
        cfg.fetch.perfectBtb = true;
        break;
      case Preset::Fdip:
        // The decoupled BPU runs ahead through a deeper FTQ than the
        // BTB-directed baselines' default.
        cfg.fetch.ftqEntries = cfg.fdip.ftqDepth;
        break;
      case Preset::MicroBtb:
        break; // defaults in MicroBtbConfig
      default:
        break;
    }

    if (profile.variableLength) {
        cfg.llc.dvllc = true;
        cfg.l1i.fetchFootprints = true;
        cfg.sn4l.disTable.byteOffsets = true;
    }
    return cfg;
}

} // namespace dcfb::sim

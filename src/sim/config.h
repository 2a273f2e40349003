/**
 * @file
 * System configuration and evaluated-design presets (Section VI).
 */

#ifndef DCFB_SIM_CONFIG_H
#define DCFB_SIM_CONFIG_H

#include <cstdint>
#include <memory>
#include <string>

#include "core/backend.h"
#include "frontend/micro_btb.h"
#include "frontend/shotgun_btb.h"
#include "mem/l1d.h"
#include "mem/l1i.h"
#include "mem/llc.h"
#include "mem/memory.h"
#include "noc/mesh.h"
#include "prefetch/confluence.h"
#include "prefetch/fdip.h"
#include "prefetch/sn4l_dis_btb.h"
#include "rt/faults.h"
#include "rt/invariants.h"
#include "workload/cfg.h"

namespace dcfb::sim {

/** The designs evaluated in the paper's figures. */
enum class Preset {
    Baseline,    //!< no instruction/BTB prefetcher
    NL,          //!< next-line
    N2L,
    N4L,
    N8L,
    N4LPlain,    //!< unselective N4L through the SN4L engine (Fig. 17)
    SN4L,        //!< selective next-4-line only
    DisOnly,     //!< discontinuity prefetcher alone (Fig. 13)
    SN4LDis,     //!< + discontinuity prefetcher
    SN4LDisBtb,  //!< the full proposal
    ClassicDis,  //!< conventional discontinuity prefetcher [17]
    Confluence,  //!< SHIFT + 16 K-entry BTB (upper bound, Section VI.D)
    Boomerang,   //!< BTB-directed, basic-block BTB
    Shotgun,     //!< BTB-directed, split U/C/RIB BTB
    PerfectL1i,  //!< all instruction requests served at hit latency
    PerfectL1iBtb, //!< Perfect L1i + 32 K-entry never-miss BTB
    Fdip,        //!< fetch-directed instruction prefetching (competitor)
    MicroBtb,    //!< last-level BTB behind the main BTB (competitor)
};

/** Name used in reports. */
std::string presetName(Preset preset);

/** Fetch-engine configuration. */
struct FetchConfig
{
    unsigned fetchWidth = 4;          //!< instructions per cycle
    unsigned fetchBufferEntries = 32; //!< pre-dispatch queue (Table III)
    unsigned frontendStages = 3;
    Cycle decodeRedirectPenalty = 6;  //!< BTB-miss/uncond resolved at decode
    Cycle execRedirectPenalty = 12;   //!< direction/indirect at execute
    Cycle predecodeLatency = 2;       //!< block pre-decode (reactive fills)
    unsigned ftqEntries = 32;         //!< Boomerang/Shotgun FTQ
    bool perfectL1i = false;
    bool perfectBtb = false;
};

/** Everything a run needs. */
struct SystemConfig
{
    workload::WorkloadProfile profile;
    Preset preset = Preset::Baseline;

    /**
     * Pre-built program image shared across runs (workload::ImageCache).
     * When null the System builds its own program from `profile`; when
     * set it must be the image `profile` would build (the experiment
     * runners guarantee this by resolving both from the same cache
     * entry).  Shared images are immutable, so many concurrently
     * simulating cells may hold the same pointer.
     */
    std::shared_ptr<const workload::Program> program;

    unsigned btbEntries = 2048; //!< conventional BTB (Table III)
    unsigned btbAssoc = 4;
    frontend::ShotgunBtbConfig shotgunBtb;
    unsigned boomerangBtbEntries = 2048; //!< basic-block BTB budget

    prefetch::Sn4lDisBtbConfig sn4l;
    prefetch::ConfluenceConfig confluence;
    prefetch::FdipConfig fdip;
    frontend::MicroBtbConfig microBtb;

    mem::L1iConfig l1i;
    mem::L1dConfig l1d;
    mem::LlcConfig llc;
    mem::MemoryConfig memory;
    noc::MeshConfig mesh;
    core::BackendConfig backend;
    FetchConfig fetch;

    unsigned coreTile = 5;      //!< our tile in the 4x4 mesh
    std::uint64_t runSeed = 42; //!< trace-walk seed ("checkpoint")

    rt::IntegrityConfig integrity; //!< invariant sweeps + watchdog
    rt::FaultPlan faults;          //!< seeded fault injection (--inject)

    /** Functional warmup length in retired instructions.  SimFlex
     *  checkpoints include long-term microarchitectural state (LLC,
     *  BTB, branch predictor); this pass reproduces that before the
     *  timed warm window. */
    std::uint64_t functionalWarmInstrs = 2000000;

    /**
     * Force the generic (virtual-dispatch) step path instead of the
     * preset-specialized one.  The two paths execute identical
     * statements and must produce bit-identical RunResults; the
     * dispatch-equivalence tests use the generic path as the reference.
     */
    bool genericStep = false;
};

/** A config with the preset's structures sized per Section VI.D. */
SystemConfig makeConfig(const workload::WorkloadProfile &profile,
                        Preset preset);

/**
 * Process-wide default fault plan stamped into every makeConfig() result.
 * The bench harness sets this from `--inject` so all of a bench's runs
 * are perturbed without threading a plan through every figure driver.
 * Defaults to an inactive plan (FaultKind::None).
 */
void setDefaultFaultPlan(const rt::FaultPlan &plan);
const rt::FaultPlan &defaultFaultPlan();

} // namespace dcfb::sim

#endif // DCFB_SIM_CONFIG_H

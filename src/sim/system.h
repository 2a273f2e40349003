/**
 * @file
 * System: one fully-wired simulated node (program + walker + memory
 * hierarchy + frontend + backend + the configured prefetcher/engine).
 *
 * Preset-specialized stepping makes a cell fast without changing any
 * result (DESIGN.md §11): step() dispatches through a member-function
 * pointer bound once at construction to a `stepImpl<Pf, Fe, Timed>`
 * instantiation for the preset's concrete prefetcher and fetch-engine
 * types.  One preset table in the constructor builds both and binds
 * the step over exactly those types.  Inside one instantiation every
 * per-cycle prefetcher/fetch call devirtualizes; a Baseline cell pays
 * zero SN4L/Dis/BTB branches.  A System built while obs::Profiler is
 * enabled binds the sampled timed instantiation of the same body
 * instead; the choice is fixed for the System's life.
 *
 * The functional warmup itself is shared: the constructor either walks
 * the warm stream or restores the sim::WarmCache checkpoint of an
 * earlier cell with the same warm key (sim/warm_cache.h).
 */

#ifndef DCFB_SIM_SYSTEM_H
#define DCFB_SIM_SYSTEM_H

#include <memory>
#include <vector>

#include "core/backend.h"
#include "frontend/btb.h"
#include "frontend/tage.h"
#include "isa/predecoder.h"
#include "mem/l1d.h"
#include "mem/l1i.h"
#include "mem/llc.h"
#include "mem/memory.h"
#include "noc/mesh.h"
#include "obs/json.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "prefetch/prefetcher.h"
#include "sim/config.h"
#include "sim/decoupled.h"
#include "sim/fetch.h"
#include "sim/warm_cache.h"
#include "workload/cfg.h"
#include "workload/trace.h"

namespace dcfb::sim {

struct RunResult;

/**
 * Owns and wires every component of one simulated node.
 */
class System
{
  public:
    explicit System(const SystemConfig &config);

    /** Advance the machine by one cycle. */
    void step() { (this->*stepFn)(); }

    /** Current cycle. */
    Cycle now() const { return cycleCount; }

    /** Reset statistics at the warmup/measure boundary: every stat-table
     *  row except the gap 6 ones. */
    void resetStats();

    /** Fill @p out's stats and hists from every stat-table row, each
     *  name under its row's prefix. */
    void collectStats(RunResult &out) const;

    /** BF construction from the retired stream (VL-ISA mode). */
    void recordRetiredFootprints(const workload::TraceEntry &e);

    /**
     * Structured machine-state snapshot (schema "dcfb-snapshot-v1"):
     * queues, MSHRs, in-flight prefetches, progress counters.  Attached
     * to watchdog/invariant failures so a wedged run dies with evidence.
     */
    obs::JsonValue snapshot() const;

    SystemConfig cfg;

    /** The program under simulation.  Either the shared immutable image
     *  from cfg.program (experiment runners, one build per workload) or
     *  a privately-built one (standalone simulate() callers). */
    std::shared_ptr<const workload::Program> program;
    std::unique_ptr<workload::TraceWalker> walker;
    std::unique_ptr<isa::Predecoder> predecoder;

    std::unique_ptr<noc::MeshModel> mesh;
    std::unique_ptr<mem::MemoryModel> memory;
    std::unique_ptr<mem::Llc> llc;
    std::unique_ptr<mem::L1iCache> l1i;
    std::unique_ptr<mem::L1dCache> l1d;

    std::unique_ptr<frontend::Tage> tage;
    std::unique_ptr<frontend::Btb> btb;
    std::unique_ptr<frontend::MicroBtb> microBtb; //!< MicroBTB preset only
    std::unique_ptr<core::Backend> backend;

    std::unique_ptr<prefetch::InstrPrefetcher> prefetcher;
    prefetch::Sn4lDisBtb *sn4l = nullptr; //!< the prefetcher, SN4L family
    prefetch::Fdip *fdip = nullptr;       //!< the prefetcher, FDIP preset
    std::unique_ptr<FetchEngine> fetch;
    DecoupledFetchEngine *decoupled = nullptr; //!< non-null for BTB-directed

    obs::StatRegistry simStats;

    rt::FaultInjector injector;     //!< active only under --inject
    rt::InvariantRegistry invariants;

    /** How this cell's functional warmup was obtained. */
    WarmSource warmSource = WarmSource::Cold;

    /** Sampled per-phase cycle-loop attribution; only written by a
     *  System built with obs::Profiler enabled (the integrity slot is
     *  accumulated by the run loop in simulator.cpp). */
    obs::PhaseSeconds profPhases{};

  private:
    /** One stepImpl instantiation. */
    using StepFn = void (System::*)();

    /** Whether a stat-table row is zeroed at the warm/measure boundary. */
    enum class WarmReset : std::uint8_t
    {
        Zero,
        /** Fidelity gap 6 (EXPERIMENTS.md): the row keeps its timed
         *  warm-window counts, which leak into the measured RunResult.
         *  Closing the gap means deleting this value. */
        Gap6Keep,
    };

    /** One reported registry: its counters and histograms appear in the
     *  RunResult as "<prefix>.<name>"; rows may share a prefix. */
    struct StatRow
    {
        const char *prefix;
        obs::StatRegistry *stats;
        WarmReset reset;
    };

    /** Append a row to the stat table (construction only). */
    void
    addStats(const char *prefix, obs::StatRegistry &stats,
             WarmReset reset = WarmReset::Zero)
    {
        statTable.push_back({prefix, &stats, reset});
    }

    /** Wire the fault injector and register every component invariant. */
    void registerIntegrity();

    /** Build the long-term state (LLC, L1s, TAGE, BTB-side structures)
     *  by walking the warm stream or restoring a WarmCache checkpoint. */
    void functionalWarmup();

    /** Teach one warm branch to the BTB-side structures: taken branches
     *  to the BTB and micro BTB, every branch to Shotgun's split BTB.
     *  Walked and restored cells both prime through here. */
    void primeBranch(const WarmBranch &b);

    /** Install @p pf as the prefetcher, build fetch engine @p Fe, run
     *  the functional warmup (no engine reads the walker before its
     *  first cycle) and bind stepFn to stepImpl over exactly @p Pf and
     *  @p Fe, timed or plain according to obs::Profiler::enabled(). */
    template <typename Fe, typename Pf> void wire(std::unique_ptr<Pf> pf);

    /** One simulated cycle, specialized on the concrete prefetcher and
     *  fetch-engine types.  With @p Timed (profiling runs only) one
     *  cycle in obs::kProfSampleStride is timed phase by phase with
     *  chained timestamps; the others run the plain instantiation. */
    template <typename Pf, typename Fe, bool Timed> void stepImpl();

    template <typename Fe> void dispatchStageImpl(Fe &fe);

    StepFn stepFn = nullptr;

    /** What a RunResult reports and what resetStats zeroes, filled as
     *  the components are built. */
    std::vector<StatRow> statTable;

    Cycle cycleCount = 0;
    Cycle statsEpoch = 0; //!< cycleCount at the last resetStats

    // Typed handles for the per-cycle dispatch accounting.
    obs::Counter cDispatchActive, cStallBackend, cStallIcache, cStallBtb,
        cStallEmptyFtq, cStallMispredict, cStallFrontend, cStallOther;

  public:
    std::uint64_t instructions() const { return backend->retired(); }
};

} // namespace dcfb::sim

#endif // DCFB_SIM_SYSTEM_H

/**
 * @file
 * Lightweight simulation profiler behind the benches' `--profile` and
 * `--trace-spans` flags.
 *
 * Two kinds of attribution, both per simulated cell:
 *
 *  - **Wall-clock split** of every cell into setup (image build +
 *    functional warmup), warm window and measured window.  One
 *    steady_clock pair per window: negligible overhead, always recorded
 *    while profiling is enabled.  This is what `scripts/perf_baseline.py`
 *    turns into cycles/sec per preset (BENCH_perf.json).  Each record
 *    also carries its start stamp and timeline track, so the
 *    `--trace-spans` timeline is drawn from these records.
 *
 *  - **Sampled per-phase attribution** of the cycle loop: one cycle in
 *    kProfSampleStride has each System::step() stage (backend, L1i
 *    tick, prefetcher, dispatch, fetch) timed individually; every other
 *    cycle runs the plain step.  When the record is taken the sampled
 *    shares are scaled to tile the loop wall (tilePhases), so the
 *    `prof` JSON section shows where a cell's cycle time goes while the
 *    profiled loop runs at close to plain speed (DESIGN.md section 10).
 *
 * Process-global, like obs::Tracing and exec::ExecLog: the bench harness
 * enables it once, every simulated cell contributes a record, and the
 * harness drains the records into the JSON document's `prof` section
 * and the span timeline.  Worker threads each profile their own System
 * (accumulators live in the System, not here); only push/drain
 * synchronize.  A System picks its step path when it is constructed, so
 * the switch must be set before a cell starts: flipping it in the
 * middle of a cell has no effect on that cell.
 */

#ifndef DCFB_OBS_PROFILER_H
#define DCFB_OBS_PROFILER_H

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"

namespace dcfb::obs {

/** The attributed phases of one simulated cycle (System::step order),
 *  plus the out-of-loop integrity sweeps. */
enum class ProfPhase : unsigned {
    Backend = 0,   //!< core::Backend::beginCycle
    L1iTick,       //!< mem::L1iCache::tick (fill completion)
    Prefetcher,    //!< prefetcher tick (queue drains, table lookups)
    Dispatch,      //!< dispatch stage incl. L1d accesses
    Fetch,         //!< fetch engine cycle (BPU + fetch + predictors)
    Integrity,     //!< invariant sweeps + watchdog observations
};

inline constexpr unsigned kProfPhases = 6;

/** Display name of @p phase ("backend", "fetch", ...). */
const char *profPhaseName(ProfPhase phase);

/** Per-phase wall-seconds accumulator owned by one System. */
using PhaseSeconds = std::array<double, kProfPhases>;

/** Cycles per timed cycle on the profiled step path.  A prime, so the
 *  sample cannot alias the 8192-cycle integrity sweep interval. */
inline constexpr unsigned kProfSampleStride = 61;

/**
 * Scale the sampled cycle-loop phases in @p phases so that the five of
 * them sum to @p loopSeconds minus the integrity slot, which is timed
 * on every sweep and left as measured.  A record with no sampled cycle
 * is left unchanged.
 */
void tilePhases(PhaseSeconds &phases, double loopSeconds);

/** What one simulated cell cost. */
struct ProfRecord
{
    std::string workload;
    std::string design;
    std::uint64_t cycles = 0;       //!< timed cycles (warm + measure)
    std::uint64_t instructions = 0; //!< instructions retired while timed
    double start = 0.0;             //!< profNow() at simulate entry
    unsigned track = 0;             //!< exec::threadTrack() of the run
    double setupSeconds = 0.0;      //!< System ctor: image + warmup
    std::string warm = "cold";      //!< warm source: cold/stored/restored
    double warmSeconds = 0.0;       //!< timed warm window
    double measureSeconds = 0.0;    //!< measured window
    PhaseSeconds phaseSeconds{};    //!< sampled, tiled loop attribution

    /** Cycle-loop wall (the cycles/sec denominator). */
    double simSeconds() const { return warmSeconds + measureSeconds; }

    /** Simulator-core throughput over the timed windows. */
    double
    cyclesPerSecond() const
    {
        double s = simSeconds();
        return s > 0.0 ? static_cast<double>(cycles) / s : 0.0;
    }
};

/**
 * The process-global profile switch and record log.
 */
class Profiler
{
  public:
    /** Turn profiling on/off (bench harness, from `--profile`). */
    static void setEnabled(bool on);

    /** One relaxed atomic load; safe on any thread. */
    static bool
    enabled()
    {
        return enabledFlag.load(std::memory_order_relaxed);
    }

    /** Append @p record to the process log.  Thread-safe. */
    static void push(ProfRecord record);

    /** Remove and return everything pushed so far.  Thread-safe. */
    static std::vector<ProfRecord> drain();

  private:
    static std::atomic<bool> enabledFlag;
};

/**
 * Render profiler records as the `dcfb-prof-v1` JSON section
 * ({"schema", "cells": [...]}).  Cells are sorted by (workload,
 * design) so the document is identical for every `--jobs` value (the
 * drain order under a pool is interleaving-dependent).  The bench
 * harness and the schema tests share this one producer.
 */
JsonValue profJson(std::vector<ProfRecord> records);

/** Monotonic seconds-since-some-epoch helper shared by the timers. */
inline double
profNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace dcfb::obs

#endif // DCFB_OBS_PROFILER_H

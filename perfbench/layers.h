/**
 * @file
 * The traced run: per-layer probes timed from the benchmark's own code,
 * a span log written as a Chrome trace-event file, and the summary
 * statistics shared by both runs.
 *
 * Every probe calls the library's public entry points and times them
 * around the call; nothing inside the simulator is instrumented except
 * the existing obs::Profiler, which only the step-phase pass enables.
 */

#ifndef DCFB_PERFBENCH_LAYERS_H
#define DCFB_PERFBENCH_LAYERS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cells.h"

namespace dcfb::perfbench {

/** Median of @p samples (mean of the middle two for even counts). */
double median(std::vector<double> samples);

/**
 * Nearest-rank @p q-quantile of @p samples, reported only when at least
 * @p min_beyond samples lie above it; nullopt otherwise.
 */
std::optional<double> tailPercentile(std::vector<double> samples, double q,
                                     std::size_t min_beyond = 10);

/** Lower-case metric-name slug of a design name ("SN4L+Dis+BTB" ->
 *  "sn4l_dis_btb"). */
std::string slug(const std::string &design);

/**
 * In-memory span log.  A span has a name, start, end, parent span and
 * the per-cell id it belongs to (0 outside cells).  Thread-safe.
 */
class SpanLog
{
  public:
    /** Record a finished span; returns its id. */
    std::uint64_t add(std::string name, double start, double end,
                      std::uint64_t parent, std::uint64_t cell);

    /** Reserve an id for a span recorded later (parents of children). */
    std::uint64_t reserve();

    /** Record a span under a reserved id. */
    void addReserved(std::uint64_t id, std::string name, double start,
                     double end, std::uint64_t parent, std::uint64_t cell);

    /** Write the Chrome trace-event JSON array; false on I/O error. */
    bool writeChrome(const std::string &path) const;

    std::size_t size() const;

  private:
    struct Span
    {
        std::uint64_t id, parent, cell;
        std::string name;
        double start, end;
        std::uint64_t tid;
    };
    mutable std::mutex mutex;
    std::vector<Span> spans;
    std::uint64_t nextId = 1;
    double origin = -1.0;
};

/** Host-time split of one cell driven step by step (the traced twin of
 *  sim::trySimulate). */
struct TracedCell
{
    bool ok = false;
    std::string error;
    std::uint64_t measureInstructions = 0; //!< must match the RunResult
    double seconds = 0.0;      //!< whole cell
    double setupSeconds = 0.0; //!< sim::System constructor
    double warmStepSeconds = 0.0;
    double measureStepSeconds = 0.0;
    double resetSeconds = 0.0; //!< System::resetStats
    double sweepSeconds = 0.0; //!< InvariantRegistry::check + watchdog
    std::uint64_t sweeps = 0;
    std::uint64_t checksRun = 0;
    std::uint64_t checksSkipped = 0;
};

/**
 * Run @p cell as sim::trySimulate does (same step order, same integrity
 * sweeps), timing the System constructor, System::step in chunks
 * between sweeps, the sweeps and resetStats, and logging spans under a
 * cell span whose parent is @p parent.
 */
TracedCell traceCell(const Cell &cell, const sim::RunWindows &windows,
                     SpanLog &log, std::uint64_t cell_id,
                     std::uint64_t parent);

/** Per-call cost of one structure in the functional-warmup replay. */
struct CallCost
{
    std::uint64_t calls = 0;
    double seconds = 0.0;

    double ns() const { return calls ? seconds * 1e9 / calls : 0.0; }
};

/** workload::TraceWalker and warm-replay costs for one cell's stream. */
struct WarmReplay
{
    std::uint64_t instructions = 0;
    double walkSeconds = 0.0; //!< TraceWalker::next alone
    CallCost llcWarmTouch, l1iWarmInsert, l1dWarmInsert, tage, btbUpdate;
};

/**
 * Replay @p cell's functional-warmup stream: time TraceWalker::next,
 * then feed the same stream, chunk by chunk, to standalone LLC, L1i,
 * L1d, TAGE and BTB instances built from the cell's config, timing each
 * structure's calls separately.
 */
WarmReplay replayWarmup(const Cell &cell);

/** obs::Profiler step-phase attribution over a set of cells. */
struct PhaseProfile
{
    std::uint64_t cycles = 0;
    double loopSeconds = 0.0; //!< profiled warm + measure wall
    double backend = 0.0, l1iTick = 0.0, prefetcher = 0.0, dispatch = 0.0,
           fetch = 0.0; //!< seconds per phase
};

/** Simulate @p cells serially with obs::Profiler enabled. */
PhaseProfile profilePhases(const std::vector<Cell> &cells,
                           const sim::RunWindows &windows);

} // namespace dcfb::perfbench

#endif // DCFB_PERFBENCH_LAYERS_H

/**
 * @file
 * The benchmark's workloads and the untraced, result-checked runner.
 *
 * A workload is a fixed list of simulation cells (config + run windows)
 * plus a worker count.  One *round* of a workload does what a user of a
 * figure bench waits for: resolve every cell's program image through
 * workload::ImageCache (setup), then simulate every cell with
 * sim::trySimulate on an exec::runIndexed pool.  Nothing from svc, obs
 * or cli is on this path: no result cache, no spans, no profiler.
 *
 * Every cell's RunResult is hashed in canonical sim::toJson form.  On
 * the default seed the hashes are compared with the digests recorded in
 * perfbench/digests.txt; on any other seed, later rounds are compared
 * with the first (a determinism check).
 */

#ifndef DCFB_PERFBENCH_CELLS_H
#define DCFB_PERFBENCH_CELLS_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "exec/schedule.h"
#include "rt/faults.h"
#include "sim/simulator.h"

namespace dcfb::perfbench {

/** The --seed that reproduces the figure benches' run seeds. */
inline constexpr std::int64_t kDefaultSeed = 42;

/** One simulation of a workload. */
struct Cell
{
    std::string label; //!< "<workload>/<design>[/seed=<n>]", unique
    sim::SystemConfig cfg;
};

/** A named benchmark workload. */
struct Workload
{
    std::string name;
    std::vector<Cell> cells;
    sim::RunWindows windows;
    unsigned jobs = 1; //!< exec::runIndexed worker count
};

/** Names of the benchmark's workloads, in documentation order. */
std::vector<std::string> workloadNames();

/**
 * Build workload @p name for @p seed.  The seed shifts every run seed
 * by (seed - kDefaultSeed).  nullopt for an unknown name.
 */
std::optional<Workload> makeWorkload(const std::string &name,
                                     std::int64_t seed);

/** What happened to one cell in one round. */
struct CellOutcome
{
    bool ok = false;        //!< trySimulate returned a result
    std::string error;      //!< rt::Error / exception text when !ok
    std::string digest;     //!< hash of the canonical RunResult JSON
    double seconds = 0.0;   //!< wall time around sim::trySimulate
    double endTime = 0.0;   //!< steady-clock seconds at cell end
    std::thread::id worker; //!< thread that ran the cell
    sim::RunResult result;
};

/** One timed pass over a workload. */
struct Round
{
    double setupSeconds = 0.0; //!< image builds before the first cell
    double wallSeconds = 0.0;  //!< setup + every cell, to the barrier
    double cpuSeconds = 0.0;   //!< user + sys CPU of the process
    double barrierTime = 0.0;  //!< steady-clock seconds at the barrier
    exec::ExecReport exec;
    std::vector<CellOutcome> cells;
};

/** Monotonic seconds (std::chrono::steady_clock). */
double nowSeconds();

/** User + sys CPU seconds of this process so far. */
double processCpuSeconds();

/** Peak resident set of this process so far, in MB. */
double peakRssMb();

/**
 * Time the setup phase alone: clear the image cache and resolve every
 * cell's program.  Returns wall seconds; @p cells gain their programs.
 */
double resolveImages(std::vector<Cell> &cells);

/**
 * One untraced round: setup, then every cell through sim::trySimulate
 * on @p workload.jobs workers.  @p faults, when active, is stamped into
 * every cell (self-test only).  Digests are computed after the clock
 * stops.
 */
Round runRound(const Workload &workload,
               const rt::FaultPlan &faults = rt::FaultPlan{});

/** FNV-1a 64 of the canonical sim::toJson dump, as 16 hex digits. */
std::string digest(const sim::RunResult &result);

/** "<workload>:<cell label>" -> digest, as stored in a digests file. */
using DigestMap = std::map<std::string, std::string>;

/** Parse "<digest> <workload>:<cell label>" lines ('#' starts a comment
 *  line); nullopt when unreadable. */
std::optional<DigestMap> loadDigests(const std::string &path);

/**
 * Mark failed cells in every round and return the failure count.  A
 * cell fails when it did not complete, or when its digest differs from
 * @p recorded (if given) or else from the same cell in round 0.
 */
std::size_t checkRounds(const Workload &workload, std::vector<Round> &rounds,
                        const DigestMap *recorded);

/** Simulated warm + measure cycles of a workload's cells. */
std::uint64_t simulatedCycles(const Workload &workload);

} // namespace dcfb::perfbench

#endif // DCFB_PERFBENCH_CELLS_H

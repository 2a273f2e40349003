/**
 * @file
 * Grid scheduling: the process-wide `--jobs` setting, the indexed
 * scatter/gather loop under the grid runner (exec/grid.h) and the
 * perfbench cell loop, and the exec-report log the bench harness drains
 * into the `dcfb-bench-v1` JSON.
 *
 * The model is deliberately small (see DESIGN.md "Execution model"):
 *
 *  - a sweep enumerates its cells up front, on the calling thread, so
 *    variant tweaks and the process-wide defaults (fault plan, jobs)
 *    are only ever read serially;
 *  - runIndexed() starts `jobs` threads that claim indices in
 *    ascending order from one atomic counter and joins them; the caller
 *    merges results *in index order*, so the merged output is
 *    independent of worker interleaving;
 *  - with an effective job count of 1, runIndexed() runs the cells in
 *    index order on the calling thread with no worker at all, which is
 *    what makes `--jobs 1` bit-identical to the historical serial
 *    runner.
 *
 * Determinism rule: a cell may only depend on its own config (including
 * its own seeds) -- never on the interleaving.  Per-cell RunResults are
 * therefore identical for every `--jobs` value; only wall time and the
 * ExecReport occupancy change.
 */

#ifndef DCFB_EXEC_SCHEDULE_H
#define DCFB_EXEC_SCHEDULE_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace dcfb::exec {

/** std::thread::hardware_concurrency() clamped to at least 1. */
unsigned hardwareJobs();

/**
 * Set the process-wide default job count (the bench harness installs
 * the `--jobs` value here).  0 means "auto": use hardwareJobs().
 */
void setDefaultJobs(unsigned jobs);

/** The raw process-wide setting (0 = auto). */
unsigned defaultJobs();

/**
 * Effective job count for a sweep: @p requested when non-zero,
 * otherwise the process default, otherwise hardwareJobs().
 */
unsigned resolveJobs(unsigned requested = 0);

/** How long one scheduled cell ran. */
struct CellTime
{
    std::string label;     //!< e.g. "OLTP (DB A)/SN4L+Dis+BTB"
    double seconds = 0.0;  //!< cell wall time
};

/** What one runIndexed() sweep did; mirrored into bench JSON. */
struct ExecReport
{
    std::string label;        //!< sweep label (table/figure name)
    unsigned jobs = 1;        //!< effective worker count
    std::uint64_t cells = 0;  //!< tasks scheduled
    double wallSeconds = 0.0; //!< wall time of the whole sweep
    double busySeconds = 0.0; //!< sum of the per-cell walls
    std::vector<CellTime> cellTimes; //!< per-cell wall, index order

    /** busy / (wall x jobs); 1.0 keeps every worker busy throughout. */
    double occupancy() const;
};

/**
 * Run `body(i)` for every i in [0, n) and return the timing report.
 *
 * jobs <= 1: cells run in ascending index order on the calling thread
 * (bit-identical to a plain loop).  jobs > 1: @p jobs worker threads
 * claim indices in ascending order, so cells start in the serial
 * order; the call returns once every worker has joined.  A failure
 * stops further claims, and the exception of the lowest failing index
 * is rethrown here -- the one a serial run raises, since every index
 * below a claimed one was claimed before it.
 *
 * @param label      sweep label for the report
 * @param n          number of cells
 * @param jobs       effective worker count (callers resolveJobs() first)
 * @param body       the cell; must only touch cell-owned or
 *                   shared-immutable state when jobs > 1
 * @param cell_label optional label for per-cell timing entries
 */
ExecReport
runIndexed(std::string label, std::size_t n, unsigned jobs,
           const std::function<void(std::size_t)> &body,
           const std::function<std::string(std::size_t)> &cell_label = {});

/**
 * Process-wide log of sweep reports.  exec::runGrid pushes one per
 * grid; the bench harness drains the log into the JSON document's
 * "exec" section at exit.  Thread-safe.
 */
class ExecLog
{
  public:
    static void push(ExecReport report);

    /** Remove and return everything pushed so far. */
    static std::vector<ExecReport> drain();
};

} // namespace dcfb::exec

#endif // DCFB_EXEC_SCHEDULE_H

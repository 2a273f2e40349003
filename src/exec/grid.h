/**
 * @file
 * The cell grid: the one runner behind every (workload x variant) sweep
 * -- each figure bench, the grid tests and the paper-claim checks.
 *
 * A variant is one column of a figure: a label, a design preset and an
 * optional config tweak (a table size, a BTB scale, a tagging policy).
 * runGrid() enumerates the cells on the calling thread, workload-major,
 * resolves each cell's image through workload::ImageCache (keyed on the
 * post-tweak profile, so untweaked profiles share one image), runs them
 * through exec::runIndexed over sim::simulate and returns a dense table.
 * Workload-major order is what lets a workload's cells share one
 * functional-warmup checkpoint (sim::WarmCache holds one slot), whatever
 * order the figure reads its columns in.
 *
 * Each cell's result depends on its config only, so the table is
 * identical for every job count; one job runs the cells in order on the
 * calling thread.  The reductions sum in workload order and divide once,
 * which is how the figures' "Average" and "GeoMean" rows are printed.
 */

#ifndef DCFB_EXEC_GRID_H
#define DCFB_EXEC_GRID_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exec/schedule.h"
#include "sim/simulator.h"

namespace dcfb::exec {

using Tweak = std::function<void(sim::SystemConfig &)>;

/** One grid column. */
struct Variant
{
    std::string label;      //!< column label (cell labels, lookups)
    sim::Preset preset;     //!< design the config is made from
    Tweak tweak = nullptr;  //!< optional change applied after makeConfig
};

/** One variant per preset, labelled with its preset name, all sharing
 *  @p tweak. */
std::vector<Variant> presetVariants(const std::vector<sim::Preset> &presets,
                                    const Tweak &tweak = nullptr);

/** Dense (workload x variant) results of one runGrid() sweep. */
class Grid
{
  public:
    using Metric = std::function<double(const sim::RunResult &)>;
    using Ratio = std::function<double(const sim::RunResult &,
                                       const sim::RunResult &)>;

    const std::vector<std::string> &workloads() const { return names; }
    const std::vector<std::string> &variants() const { return labels; }

    /** The cell of workload @p w and variant @p v (indices into
     *  workloads() and variants()).  Out of range raises an
     *  rt::Exception naming what the grid holds. */
    const sim::RunResult &at(std::size_t w, std::size_t v) const;

    /** at() by workload name and variant label (the first variant of
     *  that label); an unknown name raises like an index. */
    const sim::RunResult &at(const std::string &workload,
                             const std::string &variant) const;

    /** Arithmetic mean over workloads of @p metric on variant @p v. */
    double mean(std::size_t v, const Metric &metric) const;

    /** Arithmetic mean over workloads of ratio(v's cell, base's cell). */
    double mean(std::size_t v, std::size_t base, const Ratio &ratio) const;

    /** Geometric mean over workloads of ratio(v's cell, base's cell);
     *  the paper's "GeoMean" speedup by default. */
    double gmean(std::size_t v, std::size_t base,
                 const Ratio &ratio = sim::speedup) const;

    /** Sum over workloads of counter @p stat on variant @p v. */
    std::uint64_t total(std::size_t v, const std::string &stat) const;

    /** Scheduling telemetry of the sweep (also pushed to ExecLog). */
    const ExecReport &execReport() const { return report; }

  private:
    friend Grid runGrid(std::string, std::vector<std::string>,
                        std::vector<Variant>, const sim::RunWindows &,
                        unsigned, bool);

    [[noreturn]] void missing(const std::string &requested) const;

    std::vector<std::string> names;
    std::vector<std::string> labels;
    std::vector<sim::RunResult> cells; //!< workload-major
    ExecReport report;
};

/**
 * Run every (workload, variant) cell and return the table.
 *
 * @param label     sweep label for the ExecReport
 * @param workloads server workload names, in row order
 * @param variants  the columns
 * @param windows   warmup/measure windows of every cell
 * @param jobs      worker count; 0 defers to exec::resolveJobs() (the
 *                  `--jobs` flag).  A failing cell raises the same
 *                  rt::Exception at every job count.
 * @param vl        build the variable-length-ISA workloads
 */
Grid runGrid(std::string label, std::vector<std::string> workloads,
             std::vector<Variant> variants, const sim::RunWindows &windows,
             unsigned jobs = 0, bool vl = false);

} // namespace dcfb::exec

#endif // DCFB_EXEC_GRID_H

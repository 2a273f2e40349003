#include "sim/experiment.h"

#include <cmath>
#include <cstdio>
#include <optional>
#include <utility>

#include "exec/result_cache.h"
#include "rt/error.h"

namespace dcfb::sim {

ExperimentGrid::ExperimentGrid(std::vector<Preset> presets_,
                               RunWindows windows_, ConfigHook hook_,
                               bool vl)
    : presets(std::move(presets_)), windows(windows_),
      hook(std::move(hook_)), variableLength(vl)
{
}

void
ExperimentGrid::run()
{
    run(workload::serverWorkloadNames());
}

void
ExperimentGrid::run(const std::vector<std::string> &workload_names)
{
    run(workload_names, 0);
}

void
ExperimentGrid::run(const std::vector<std::string> &workload_names,
                    unsigned jobs_requested)
{
    names = workload_names;

    // The miss-attribution tracer buffers per run on the running thread
    // and merges at close, so a traced grid parallelizes like any other
    // (the merged stream is byte-identical to a serial run's).
    unsigned jobs = exec::resolveJobs(jobs_requested);

    // Scatter phase setup, all on this thread: config hooks and the
    // process-wide defaults (fault plan, jobs) are only read serially,
    // and every cell of a workload shares one immutable cached image.
    struct Cell
    {
        std::string name;
        Preset preset;
        SystemConfig cfg;
    };
    std::vector<Cell> cells;
    cells.reserve(names.size() * presets.size());
    for (const auto &name : names) {
        auto profile = workload::serverProfile(name, variableLength);
        for (Preset preset : presets) {
            SystemConfig cfg = makeConfig(profile, preset);
            if (hook)
                hook(cfg);
            // Key the image on the post-hook profile: hook-tweaked
            // profiles get their own cache entry, untouched ones share.
            cfg.program = workload::ImageCache::global().get(cfg.profile);
            cells.push_back(Cell{name, preset, std::move(cfg)});
        }
    }

    // Scatter/gather: each cell simulates into its own slot (per-cell
    // System, registries, watchdog and fault injector -- nothing shared
    // but the immutable images and sim::WarmCache checkpoint, which the
    // workload-major cell order lets a workload's designs share), then
    // the results are merged in cell order after the barrier so the
    // grid's content is independent of worker interleaving.
    std::vector<std::optional<RunResult>> out(cells.size());
    lastExec = exec::runIndexed(
        "grid", cells.size(), jobs,
        [&](std::size_t i) {
            // Exactly simulate() unless a --cache directory is open.
            out[i] = exec::simulateCached(cells[i].cfg, windows);
            std::fprintf(stderr, "  [grid] %s / %s done\n",
                         cells[i].name.c_str(),
                         presetName(cells[i].preset).c_str());
        },
        [&](std::size_t i) {
            return cells[i].name + "/" + presetName(cells[i].preset);
        });
    exec::ExecLog::push(lastExec);

    for (std::size_t i = 0; i < cells.size(); ++i) {
        results.emplace(std::make_pair(cells[i].name, cells[i].preset),
                        std::move(*out[i]));
    }
}

const RunResult *
ExperimentGrid::tryAt(const std::string &workload_name, Preset preset) const
{
    auto it = results.find(std::make_pair(workload_name, preset));
    return it == results.end() ? nullptr : &it->second;
}

const RunResult &
ExperimentGrid::at(const std::string &workload_name, Preset preset) const
{
    if (const RunResult *res = tryAt(workload_name, preset))
        return *res;
    std::string available;
    for (const auto &kv : results) {
        if (!available.empty())
            available += ", ";
        available += kv.first.first + "/" + presetName(kv.first.second);
    }
    rt::raise(rt::Error(rt::ErrorKind::Result, "no result in the grid")
                  .with("requested",
                        workload_name + "/" + presetName(preset))
                  .with("available",
                        available.empty() ? "(none run)" : available));
}

double
ExperimentGrid::mean(
    Preset preset,
    const std::function<double(const RunResult &)> &metric) const
{
    if (names.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &name : names)
        sum += metric(at(name, preset));
    return sum / static_cast<double>(names.size());
}

double
ExperimentGrid::gmeanSpeedup(Preset design, Preset baseline) const
{
    if (names.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const auto &name : names) {
        double s = speedup(at(name, design), at(name, baseline));
        log_sum += std::log(s > 0 ? s : 1e-9);
    }
    return std::exp(log_sum / static_cast<double>(names.size()));
}

} // namespace dcfb::sim

#include "exec/grid.h"

#include <cmath>
#include <utility>

#include "obs/trace.h"
#include "rt/error.h"
#include "workload/profiles.h"

namespace dcfb::exec {

namespace {

std::string
joined(const std::vector<std::string> &items)
{
    std::string out;
    for (const auto &item : items)
        out += (out.empty() ? "" : ", ") + item;
    return out.empty() ? "(none)" : out;
}

} // namespace

std::vector<Variant>
presetVariants(const std::vector<sim::Preset> &presets, const Tweak &tweak)
{
    std::vector<Variant> out;
    for (sim::Preset preset : presets)
        out.push_back(Variant{sim::presetName(preset), preset, tweak});
    return out;
}

void
Grid::missing(const std::string &requested) const
{
    rt::raise(rt::Error(rt::ErrorKind::Result, "no result in the grid")
                  .with("requested", requested)
                  .with("workloads", joined(names))
                  .with("variants", joined(labels)));
}

const sim::RunResult &
Grid::at(std::size_t w, std::size_t v) const
{
    if (w >= names.size() || v >= labels.size()) {
        missing("workload #" + std::to_string(w) + " / variant #" +
                std::to_string(v));
    }
    return cells[w * labels.size() + v];
}

const sim::RunResult &
Grid::at(const std::string &workload, const std::string &variant) const
{
    auto index = [](const std::vector<std::string> &items,
                    const std::string &item) {
        std::size_t i = 0;
        while (i < items.size() && items[i] != item)
            ++i;
        return i;
    };
    std::size_t w = index(names, workload), v = index(labels, variant);
    if (w == names.size() || v == labels.size())
        missing(workload + "/" + variant);
    return at(w, v);
}

double
Grid::mean(std::size_t v, const Metric &metric) const
{
    if (names.empty())
        return 0.0;
    double sum = 0.0;
    for (std::size_t w = 0; w < names.size(); ++w)
        sum += metric(at(w, v));
    return sum / static_cast<double>(names.size());
}

double
Grid::mean(std::size_t v, std::size_t base, const Ratio &ratio) const
{
    if (names.empty())
        return 0.0;
    double sum = 0.0;
    for (std::size_t w = 0; w < names.size(); ++w)
        sum += ratio(at(w, v), at(w, base));
    return sum / static_cast<double>(names.size());
}

double
Grid::gmean(std::size_t v, std::size_t base, const Ratio &ratio) const
{
    if (names.empty())
        return 0.0;
    double log_sum = 0.0;
    for (std::size_t w = 0; w < names.size(); ++w) {
        double r = ratio(at(w, v), at(w, base));
        log_sum += std::log(r > 0 ? r : 1e-9);
    }
    return std::exp(log_sum / static_cast<double>(names.size()));
}

std::uint64_t
Grid::total(std::size_t v, const std::string &stat) const
{
    std::uint64_t sum = 0;
    for (std::size_t w = 0; w < names.size(); ++w)
        sum += at(w, v).stat(stat);
    return sum;
}

Grid
runGrid(std::string label, std::vector<std::string> workloads,
        std::vector<Variant> variants, const sim::RunWindows &windows,
        unsigned jobs, bool vl)
{
    Grid grid;
    grid.names = std::move(workloads);
    for (const auto &variant : variants)
        grid.labels.push_back(variant.label);

    // Scatter setup, all on this thread: tweaks and the process-wide
    // defaults (fault plan, jobs) are only read serially.  Keying the
    // image on the post-tweak profile gives tweaked profiles their own
    // entry while untouched ones share.
    std::vector<sim::SystemConfig> configs;
    configs.reserve(grid.names.size() * variants.size());
    for (const auto &name : grid.names) {
        auto profile = workload::serverProfile(name, vl);
        for (const auto &variant : variants) {
            sim::SystemConfig cfg = sim::makeConfig(profile, variant.preset);
            if (variant.tweak)
                variant.tweak(cfg);
            cfg.program = workload::ImageCache::global().get(cfg.profile);
            configs.push_back(std::move(cfg));
        }
    }

    // Each cell simulates into its own slot; nothing is shared but the
    // immutable images and the warm checkpoint.  Trace ordinals are
    // handed out here in cell order, so runs that share a (workload,
    // design) label merge in cell order however the workers interleave.
    grid.cells.resize(configs.size());
    const std::uint64_t first_run = obs::Tracing::reserveRuns(configs.size());
    grid.report = runIndexed(
        std::move(label), configs.size(), resolveJobs(jobs),
        [&](std::size_t i) {
            obs::Tracing::RunTag tag(first_run + i);
            grid.cells[i] = sim::simulate(configs[i], windows);
        },
        [&](std::size_t i) {
            return grid.names[i / variants.size()] + "/" +
                grid.labels[i % variants.size()];
        });
    ExecLog::push(grid.report);
    return grid;
}

} // namespace dcfb::exec

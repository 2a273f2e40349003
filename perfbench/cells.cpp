#include "cells.h"

#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <optional>

#include <sys/resource.h>

#include "sim/report.h"
#include "workload/profiles.h"

namespace dcfb::perfbench {

namespace {

/** The bench windows of bench/bench_common.h. */
constexpr sim::RunWindows kBenchWindows{150000, 150000};

Cell
makeCell(const std::string &workload_name, sim::Preset preset,
         std::uint64_t run_seed, bool label_seed)
{
    Cell cell;
    cell.cfg = sim::makeConfig(workload::serverProfile(workload_name),
                               preset);
    cell.cfg.runSeed = run_seed;
    cell.label = workload_name + "/" + sim::presetName(preset);
    if (label_seed)
        cell.label += "/seed=" + std::to_string(run_seed);
    return cell;
}

} // namespace

std::vector<std::string>
workloadNames()
{
    return {"figure-grid", "long-cell", "seed-sweep"};
}

std::optional<Workload>
makeWorkload(const std::string &name, std::int64_t seed)
{
    // Unsigned wrap-around keeps every shifted seed well defined.
    const auto shift = static_cast<std::uint64_t>(seed - kDefaultSeed);
    const std::uint64_t figure_seed = 42 + shift;

    Workload w;
    w.name = name;
    if (name == "figure-grid") {
        // Union of the Fig. 16 and Fig. 19 grids, workload-major so the
        // seven designs of a workload share one image and warm stream.
        w.windows = kBenchWindows;
        w.jobs = 2;
        for (const auto &wl : workload::serverWorkloadNames()) {
            for (auto p : {sim::Preset::Baseline, sim::Preset::NL,
                           sim::Preset::SN4LDisBtb, sim::Preset::Shotgun,
                           sim::Preset::Confluence, sim::Preset::Fdip,
                           sim::Preset::MicroBtb})
                w.cells.push_back(makeCell(wl, p, figure_seed, false));
        }
    } else if (name == "long-cell") {
        // Largest and smallest active footprints, long measure window:
        // the cycle loop dominates and the pool is bypassed.
        w.windows = sim::RunWindows{200000, 4000000};
        w.jobs = 1;
        for (const char *wl : {"OLTP (DB A)", "Web Frontend"}) {
            for (auto p : {sim::Preset::Baseline, sim::Preset::SN4LDisBtb,
                           sim::Preset::Fdip, sim::Preset::Shotgun})
                w.cells.push_back(makeCell(wl, p, figure_seed, false));
        }
    } else if (name == "seed-sweep") {
        // SimFlex-style sampling: no two cells share a warm stream.
        w.windows = kBenchWindows;
        w.jobs = 1;
        for (const auto &wl : workload::serverWorkloadNames()) {
            for (std::uint64_t k = 1; k <= 8; ++k) {
                w.cells.push_back(
                    makeCell(wl, sim::Preset::SN4LDisBtb, k + shift, true));
            }
        }
    } else {
        return std::nullopt;
    }
    return w;
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
            static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
resolveImages(std::vector<Cell> &cells)
{
    auto &cache = workload::ImageCache::global();
    cache.clear();
    double t0 = nowSeconds();
    for (auto &cell : cells)
        cell.cfg.program = cache.get(cell.cfg.profile);
    return nowSeconds() - t0;
}

Round
runRound(const Workload &workload, const rt::FaultPlan &faults)
{
    Round round;
    std::vector<Cell> cells = workload.cells;
    for (auto &cell : cells)
        cell.cfg.faults = faults;
    round.cells.resize(cells.size());

    double cpu0 = processCpuSeconds();
    double t0 = nowSeconds();
    round.setupSeconds = resolveImages(cells);

    round.exec = exec::runIndexed(
        workload.name, cells.size(), workload.jobs, [&](std::size_t i) {
            CellOutcome &out = round.cells[i];
            double c0 = nowSeconds();
            try {
                auto res = sim::trySimulate(cells[i].cfg, workload.windows);
                if (res.ok()) {
                    out.ok = true;
                    out.result = std::move(res.value());
                } else {
                    out.error = res.error().render();
                }
            } catch (const std::exception &e) {
                out.error = e.what();
            }
            out.endTime = nowSeconds();
            out.seconds = out.endTime - c0;
            out.worker = std::this_thread::get_id();
        });
    round.barrierTime = nowSeconds();
    round.wallSeconds = round.barrierTime - t0;
    round.cpuSeconds = processCpuSeconds() - cpu0;

    // Off the clock: hash every result for the correctness check.
    for (auto &out : round.cells) {
        if (out.ok)
            out.digest = digest(out.result);
    }
    return round;
}

std::string
digest(const sim::RunResult &result)
{
    std::string text = sim::toJson(result).dump();
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::optional<DigestMap>
loadDigests(const std::string &path)
{
    std::ifstream in(path);
    if (!in.is_open())
        return std::nullopt;
    DigestMap map;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        auto sp = line.find(' ');
        if (sp == std::string::npos)
            return std::nullopt;
        map[line.substr(sp + 1)] = line.substr(0, sp);
    }
    return map;
}

std::size_t
checkRounds(const Workload &workload, std::vector<Round> &rounds,
            const DigestMap *recorded)
{
    std::size_t failed = 0;
    for (auto &round : rounds) {
        for (std::size_t i = 0; i < round.cells.size(); ++i) {
            CellOutcome &out = round.cells[i];
            if (out.ok) {
                const std::string label =
                    workload.name + ":" + workload.cells[i].label;
                std::string want;
                if (recorded) {
                    auto it = recorded->find(label);
                    want = it == recorded->end() ? "(none recorded)"
                                                 : it->second;
                } else {
                    want = rounds.front().cells[i].digest;
                }
                if (out.digest != want) {
                    out.ok = false;
                    out.error = "digest " + out.digest + " != " + want +
                        " for " + label;
                }
            }
            failed += !out.ok;
        }
    }
    return failed;
}

std::uint64_t
simulatedCycles(const Workload &workload)
{
    return workload.cells.size() *
        (workload.windows.warm + workload.windows.measure);
}

} // namespace dcfb::perfbench

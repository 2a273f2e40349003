/**
 * @file
 * Simulation driver: warmup + measurement runs and metric extraction.
 *
 * Mirrors the SimFlex discipline of Section VI.C: run warm cycles to
 * heat the long-term structures, reset statistics, then measure.  All
 * derived metrics the paper reports (IPC, FSCR inputs, CMAL, coverage,
 * bandwidth) are computed here from the merged counters.
 */

#ifndef DCFB_SIM_SIMULATOR_H
#define DCFB_SIM_SIMULATOR_H

#include <cstdint>
#include <map>
#include <string>

#include "obs/registry.h"
#include "rt/error.h"
#include "sim/config.h"
#include "sim/system.h"

namespace dcfb::sim {

/** Results of one measured run. */
struct RunResult
{
    std::string workload;
    std::string design;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::map<std::string, std::uint64_t> stats;
    std::map<std::string, obs::HistogramSnapshot> hists;

    double ipc() const
    {
        return cycles ? static_cast<double>(instructions) / cycles : 0.0;
    }

    std::uint64_t
    stat(const std::string &name) const
    {
        auto it = stats.find(name);
        return it == stats.end() ? 0 : it->second;
    }

    /** Histogram lookup; nullptr when absent. */
    const obs::HistogramSnapshot *
    hist(const std::string &name) const
    {
        auto it = hists.find(name);
        return it == hists.end() ? nullptr : &it->second;
    }

    bool operator==(const RunResult &) const = default;

    double
    ratio(const std::string &num, const std::string &den) const
    {
        std::uint64_t d = stat(den);
        return d ? static_cast<double>(stat(num)) / static_cast<double>(d)
                 : 0.0;
    }

    /** L1i/BTB-induced frontend stall cycles (the FSCR denominator). */
    std::uint64_t
    frontendStalls() const
    {
        return stat("sim.stall_frontend");
    }

    /** Covered memory access latency (Figs. 4 and 13). */
    double
    cmal() const
    {
        return ratio("l1i.cmal_covered_cycles", "l1i.cmal_full_cycles");
    }

    /** Overall L1i miss coverage vs. a baseline's miss count. */
    double
    coverage(std::uint64_t baseline_misses) const
    {
        if (baseline_misses == 0)
            return 0.0;
        std::uint64_t mine = stat("l1i.l1i_misses");
        if (mine >= baseline_misses)
            return 0.0;
        return 1.0 -
            static_cast<double>(mine) / static_cast<double>(baseline_misses);
    }
};

/** Run windows (cycles).  The default is the one every bench and
 *  figure runs (the paper used 200 K + 200 K; DESIGN.md §2). */
struct RunWindows
{
    Cycle warm = 150000;
    Cycle measure = 150000;
};

/**
 * Build the system for @p config, warm it, measure it.
 *
 * Integrity checking (SystemConfig::integrity): registered invariants
 * are swept every sweepInterval cycles and the forward-progress watchdog
 * observes the retire/fetch counters at the same cadence.  A violation
 * or a tripped watchdog aborts the run with a typed rt::Error carrying
 * a "dcfb-snapshot-v1" machine-state snapshot in its context.
 */
rt::Expected<RunResult>
trySimulate(const SystemConfig &config,
            const RunWindows &windows = RunWindows{});

/** trySimulate() for legacy callers: raises rt::Exception on failure. */
RunResult simulate(const SystemConfig &config,
                   const RunWindows &windows = RunWindows{});

/** FSCR of @p design against @p baseline (Fig. 15). */
double fscr(const RunResult &design, const RunResult &baseline);

/** Speedup of @p design over @p baseline (Fig. 16). */
double speedup(const RunResult &design, const RunResult &baseline);

} // namespace dcfb::sim

#endif // DCFB_SIM_SIMULATOR_H

#include "sim/simulator.h"

#include <optional>

#include "obs/profiler.h"
#include "obs/trace.h"
#include "rt/watchdog.h"

namespace dcfb::sim {

rt::Expected<RunResult>
trySimulate(const SystemConfig &config, const RunWindows &windows)
{
    // Profiling walls: setup covers System construction (workload image
    // build or reuse, warm-touch, component wiring); warm/measure cover
    // the two run windows.  All clock reads are gated so unprofiled runs
    // pay nothing.
    const bool prof = obs::Profiler::enabled();
    double mark = prof ? obs::profNow() : 0.0;

    System system(config);

    // Setup time is bimodal (a walked or a restored warmup), so the
    // profile record names the warm source.
    const char *warm = warmSourceName(system.warmSource);
    double setup_seconds = 0.0;
    if (prof) {
        double t = obs::profNow();
        setup_seconds = t - mark;
        mark = t;
    }

    const rt::IntegrityConfig &ic = config.integrity;
    const Cycle interval = ic.sweepInterval ? ic.sweepInterval : 8192;

    std::optional<rt::Watchdog> watchdog;
    if (ic.watchdog) {
        watchdog.emplace(ic.watchdogWindow);
        watchdog->setCell(config.profile.name + "/" +
                          presetName(config.preset));
    }

    auto fetched = [&system] {
        return system.fetch->stats().get("fe_fetched");
    };

    // Attach the machine-state snapshot so a wedged or inconsistent run
    // dies with evidence, not just a message.
    auto fail = [&system](rt::Error err) {
        err.with("snapshot", system.snapshot().dump());
        return err;
    };

    // One warm/measure window with periodic integrity sweeps.  The
    // sweeps are read-only, so enabling them does not perturb results.
    auto sweep = [&]() -> std::optional<rt::Error> {
        if (auto checked = system.invariants.check(system.now());
            !checked.ok()) {
            return fail(checked.error());
        }
        if (watchdog) {
            if (auto err = watchdog->observe(
                    system.now(), system.instructions(), fetched())) {
                return fail(std::move(*err));
            }
        }
        return std::nullopt;
    };

    auto run_window = [&](Cycle cycles) -> std::optional<rt::Error> {
        for (Cycle c = 0; c < cycles; ++c) {
            system.step();
            if (system.now() % interval != 0)
                continue;
            double t0 = prof ? obs::profNow() : 0.0;
            auto err = sweep();
            if (prof) {
                system.profPhases[static_cast<unsigned>(
                    obs::ProfPhase::Integrity)] += obs::profNow() - t0;
            }
            if (err)
                return err;
        }
        return std::nullopt;
    };

    if (auto err = run_window(windows.warm))
        return std::move(*err);

    double warm_seconds = 0.0;
    if (prof) {
        double t = obs::profNow();
        warm_seconds = t - mark;
        mark = t;
    }

    std::uint64_t instr_before = system.instructions();
    system.resetStats();
    if (watchdog)
        watchdog->rearm(system.now(), system.instructions(), fetched());

    // Miss-attribution tracing covers exactly the measured window, so
    // the bounded stream is not burnt on warmup traffic.
    bool tracing = obs::Tracing::sinkOpen();
    if (tracing) {
        obs::Tracing::beginRun(config.profile.name,
                               presetName(config.preset));
    }

    auto measure_err = run_window(windows.measure);

    if (tracing)
        obs::Tracing::endRun();
    if (measure_err)
        return std::move(*measure_err);

    RunResult res;
    res.workload = config.profile.name;
    res.design = presetName(config.preset);
    res.cycles = windows.measure;
    res.instructions = system.instructions() - instr_before;

    if (prof) {
        obs::ProfRecord rec;
        rec.workload = res.workload;
        rec.design = res.design;
        rec.cycles = windows.warm + windows.measure;
        rec.instructions = system.instructions();
        rec.setupSeconds = setup_seconds;
        rec.warm = warm;
        rec.warmSeconds = warm_seconds;
        rec.measureSeconds = obs::profNow() - mark;
        rec.phaseSeconds = system.profPhases;
        obs::tilePhases(rec.phaseSeconds, rec.simSeconds());
        obs::Profiler::push(std::move(rec));
    }

    system.collectStats(res);
    return res;
}

RunResult
simulate(const SystemConfig &config, const RunWindows &windows)
{
    auto res = trySimulate(config, windows);
    return std::move(res.value()); // raises rt::Exception on failure
}

double
fscr(const RunResult &design, const RunResult &baseline)
{
    std::uint64_t base = baseline.frontendStalls();
    if (base == 0)
        return 0.0;
    std::uint64_t mine = design.frontendStalls();
    if (mine >= base)
        return 0.0;
    return 1.0 - static_cast<double>(mine) / static_cast<double>(base);
}

double
speedup(const RunResult &design, const RunResult &baseline)
{
    return baseline.ipc() > 0 ? design.ipc() / baseline.ipc() : 0.0;
}

} // namespace dcfb::sim

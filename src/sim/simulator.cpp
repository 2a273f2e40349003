#include "sim/simulator.h"

#include <optional>

#include "obs/profiler.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "rt/watchdog.h"

namespace dcfb::sim {

namespace {

/** Merge a component's counters and histograms under a prefix. */
void
merge(RunResult &out, const std::string &prefix, const StatSet &stats)
{
    for (const auto &kv : stats.all())
        out.stats[prefix + "." + kv.first] += kv.second;
    for (const auto &kv : stats.histograms()) {
        if (kv.second.count == 0)
            continue;
        out.hists[prefix + "." + kv.first].merge(kv.second);
    }
}

} // namespace

rt::Expected<RunResult>
trySimulate(const SystemConfig &config, const RunWindows &windows)
{
    // Profiling walls: setup covers System construction (workload image
    // build or reuse, warm-touch, component wiring); warm/measure cover
    // the two run windows.  All clock reads are gated so unprofiled runs
    // pay nothing.
    const bool prof = obs::Profiler::enabled();
    double mark = prof ? obs::profNow() : 0.0;

    // Span phases mirror the profiling walls.  The scopes parent under
    // the caller's ambient span (exec.cell), so one timeline
    // shows which phase of which cell each worker was in; all gated so
    // untraced runs pay one predicted branch.
    const bool spans = obs::Spans::enabled();
    std::optional<obs::SpanScope> simSpan;
    if (spans) {
        simSpan.emplace("sim.simulate", config.profile.name + "/" +
                                            presetName(config.preset));
    }

    // Phase spans are recorded retroactively (start stamp taken before,
    // record after) so the phases stay straight-line code.
    std::uint64_t span_mark = spans ? obs::Spans::nowUs() : 0;
    auto span_phase = [&](const char *name, std::string label = {}) {
        std::uint64_t t = obs::Spans::nowUs();
        obs::SpanIds cur = obs::Spans::current();
        obs::Spans::record(name, cur.trace, obs::Spans::newSpanId(),
                           cur.span, span_mark, t, std::move(label));
        span_mark = t;
    };

    System system(config);

    // Setup time is bimodal (a walked or a restored warmup), so the
    // setup span and the profile record both name the warm source.
    const char *warm = warmSourceName(system.warmSource);
    double setup_seconds = 0.0;
    if (spans)
        span_phase("sim.setup", std::string("warm=") + warm);
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
            if (prof) {
                obs::PhaseTimer t(system.profPhases,
                                  obs::ProfPhase::Integrity);
                if (auto err = sweep())
                    return err;
            } else if (auto err = sweep()) {
                return err;
            }
        }
        return std::nullopt;
    };

    if (auto err = run_window(windows.warm))
        return std::move(*err);

    if (spans)
        span_phase("sim.warm");
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
    if (spans)
        span_phase("sim.measure");
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
        obs::Profiler::push(std::move(rec));
    }

    merge(res, "sim", system.simStats);
    merge(res, "fe", system.fetch->stats());
    merge(res, "l1i", system.l1i->stats());
    merge(res, "l1d", system.l1d->stats());
    merge(res, "llc", system.llc->stats());
    merge(res, "mem", system.memory->stats());
    merge(res, "noc", system.mesh->stats());
    merge(res, "btb", system.btb->stats());
    merge(res, "tage", system.tage->stats());
    merge(res, "be", system.backend->stats());
    if (system.decoupled) {
        merge(res, "sg", system.decoupled->shotgunBtb().stats());
        merge(res, "bb", system.decoupled->bbBtb().stats());
    }
    if (auto *p = dynamic_cast<prefetch::Sn4lDisBtb *>(
            system.prefetcher.get())) {
        merge(res, "pf", p->stats());
        merge(res, "pf", p->seqTable().stats());
        merge(res, "pf", p->disTable().stats());
        merge(res, "pf", p->rlu().stats());
    }
    if (auto *p = dynamic_cast<prefetch::ConfluencePrefetcher *>(
            system.prefetcher.get())) {
        merge(res, "pf", p->stats());
    }
    if (auto *p = dynamic_cast<prefetch::Fdip *>(
            system.prefetcher.get())) {
        merge(res, "pf", p->stats());
    }
    if (system.microBtb)
        merge(res, "mbtb", system.microBtb->stats());
    // Fault counters only exist under --inject, keeping uninjected
    // reports bit-identical to the pre-integrity format.
    if (system.injector.active())
        merge(res, "rt", system.injector.stats());
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

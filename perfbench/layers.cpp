#include "layers.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <thread>

#include "frontend/btb.h"
#include "frontend/tage.h"
#include "mem/l1d.h"
#include "mem/l1i.h"
#include "mem/llc.h"
#include "obs/profiler.h"
#include "rt/watchdog.h"
#include "sim/system.h"
#include "workload/trace.h"

namespace dcfb::perfbench {

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    std::size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::optional<double>
tailPercentile(std::vector<double> samples, double q, std::size_t min_beyond)
{
    if (samples.empty())
        return std::nullopt;
    std::sort(samples.begin(), samples.end());
    std::size_t n = samples.size();
    auto rank = static_cast<std::size_t>(std::ceil(q * n));
    rank = std::clamp<std::size_t>(rank, 1, n);
    if (n - rank < min_beyond)
        return std::nullopt;
    return samples[rank - 1];
}

std::string
slug(const std::string &design)
{
    std::string out;
    for (char c : design) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            out += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        else if (!out.empty() && out.back() != '_')
            out += '_';
    }
    while (!out.empty() && out.back() == '_')
        out.pop_back();
    return out;
}

std::uint64_t
SpanLog::reserve()
{
    std::lock_guard<std::mutex> lock(mutex);
    return nextId++;
}

void
SpanLog::addReserved(std::uint64_t id, std::string name, double start,
                     double end, std::uint64_t parent, std::uint64_t cell)
{
    auto tid = static_cast<std::uint64_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()));
    std::lock_guard<std::mutex> lock(mutex);
    if (origin < 0.0 || start < origin)
        origin = start;
    spans.push_back(Span{id, parent, cell, std::move(name), start, end, tid});
}

std::uint64_t
SpanLog::add(std::string name, double start, double end,
             std::uint64_t parent, std::uint64_t cell)
{
    std::uint64_t id = reserve();
    addReserved(id, std::move(name), start, end, parent, cell);
    return id;
}

std::size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return spans.size();
}

bool
SpanLog::writeChrome(const std::string &path) const
{
    std::ofstream out(path, std::ios::out | std::ios::trunc);
    if (!out.is_open())
        return false;
    std::lock_guard<std::mutex> lock(mutex);
    // Small dense thread ids keep the viewer's tracks readable.
    std::map<std::uint64_t, unsigned> tids;
    out << "[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto tid = tids.emplace(s.tid, tids.size() + 1).first->second;
        char buf[512];
        std::snprintf(buf, sizeof buf,
                      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                      "\"parent\":%llu,\"cell\":%llu}}%s\n",
                      s.name.c_str(), tid, (s.start - origin) * 1e6,
                      (s.end - s.start) * 1e6,
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      static_cast<unsigned long long>(s.cell),
                      i + 1 < spans.size() ? "," : "");
        out << buf;
    }
    out << "]\n";
    return static_cast<bool>(out);
}

TracedCell
traceCell(const Cell &cell, const sim::RunWindows &windows, SpanLog &log,
          std::uint64_t cell_id, std::uint64_t parent)
{
    TracedCell tc;
    const std::uint64_t cell_span = log.reserve();
    const double t0 = nowSeconds();

    std::optional<sim::System> system;
    try {
        system.emplace(cell.cfg);
    } catch (const std::exception &e) {
        tc.error = e.what();
        return tc;
    }
    double t = nowSeconds();
    tc.setupSeconds = t - t0;
    log.add("sim.System", t0, t, cell_span, cell_id);

    // The same loop as sim::trySimulate: step, and at every multiple of
    // the sweep interval run the invariant sweep and the watchdog.
    const rt::IntegrityConfig &ic = cell.cfg.integrity;
    const Cycle interval = ic.sweepInterval ? ic.sweepInterval : 8192;
    std::optional<rt::Watchdog> watchdog;
    if (ic.watchdog)
        watchdog.emplace(ic.watchdogWindow);
    auto fetched = [&] { return system->fetch->stats().get("fe_fetched"); };

    auto run_window = [&](Cycle cycles, double &step_seconds) -> bool {
        Cycle left = cycles;
        while (left > 0) {
            Cycle chunk =
                std::min<Cycle>(left, interval - system->now() % interval);
            double s0 = nowSeconds();
            for (Cycle c = 0; c < chunk; ++c)
                system->step();
            double s1 = nowSeconds();
            step_seconds += s1 - s0;
            left -= chunk;
            if (system->now() % interval != 0)
                continue;
            auto checked = system->invariants.check(system->now());
            std::optional<rt::Error> err;
            if (!checked.ok())
                err = checked.error();
            else if (watchdog)
                err = watchdog->observe(system->now(),
                                        system->instructions(), fetched());
            tc.sweepSeconds += nowSeconds() - s1;
            ++tc.sweeps;
            if (err) {
                tc.error = err->render();
                return false;
            }
        }
        return true;
    };

    double w0 = nowSeconds();
    bool ok = run_window(windows.warm, tc.warmStepSeconds);
    double w1 = nowSeconds();
    log.add("sim.warm", w0, w1, cell_span, cell_id);
    if (ok) {
        std::uint64_t before = system->instructions();
        system->resetStats();
        double r1 = nowSeconds();
        tc.resetSeconds = r1 - w1;
        log.add("sim.resetStats", w1, r1, cell_span, cell_id);
        if (watchdog)
            watchdog->rearm(system->now(), system->instructions(),
                            fetched());
        ok = run_window(windows.measure, tc.measureStepSeconds);
        log.add("sim.measure", r1, nowSeconds(), cell_span, cell_id);
        tc.measureInstructions = system->instructions() - before;
    }
    tc.checksRun = system->invariants.checksRun();
    tc.checksSkipped = system->invariants.checksSkipped();
    tc.ok = ok;
    double t_end = nowSeconds();
    tc.seconds = t_end - t0;
    log.addReserved(cell_span, "cell " + cell.label, t0, t_end, parent,
                    cell_id);
    return tc;
}

WarmReplay
replayWarmup(const Cell &cell)
{
    const sim::SystemConfig &cfg = cell.cfg;
    auto program = cfg.program
        ? cfg.program
        : std::make_shared<const workload::Program>(
              workload::buildProgram(cfg.profile));
    WarmReplay wr;
    wr.instructions = cfg.functionalWarmInstrs;

    // TraceWalker::next alone, over the full warm stream (an out-of-line
    // call, so the discarded results cannot be optimized away).
    {
        workload::TraceWalker walker(*program, cfg.runSeed);
        double t0 = nowSeconds();
        for (std::uint64_t i = 0; i < wr.instructions; ++i)
            (void)walker.next();
        wr.walkSeconds = nowSeconds() - t0;
    }

    // Standalone structures with the cell's geometry, fed the same
    // stream one chunk at a time; each structure's loop is timed alone.
    noc::MeshModel mesh(cfg.mesh);
    mem::MemoryModel memory(cfg.memory);
    mem::Llc llc(cfg.llc, mesh, memory, cfg.coreTile);
    mem::L1iCache l1i(cfg.l1i, llc);
    mem::L1dCache l1d(cfg.l1d, llc);
    frontend::Tage tage;
    frontend::Btb btb(cfg.btbEntries, cfg.btbAssoc);

    workload::TraceWalker walker(*program, cfg.runSeed);
    constexpr std::size_t kChunk = 1 << 16;
    std::vector<workload::TraceEntry> chunk;
    chunk.reserve(kChunk);
    auto timed = [](CallCost &cost, auto &&body) {
        double t0 = nowSeconds();
        body();
        cost.seconds += nowSeconds() - t0;
    };
    for (std::uint64_t done = 0; done < wr.instructions;) {
        chunk.clear();
        while (chunk.size() < kChunk && done < wr.instructions) {
            chunk.push_back(walker.next());
            ++done;
        }
        timed(wr.llcWarmTouch, [&] {
            for (const auto &e : chunk) {
                llc.warmTouch(e.pc, true);
                if (e.dataAddr != kInvalidAddr)
                    llc.warmTouch(e.dataAddr, false);
            }
        });
        timed(wr.l1iWarmInsert, [&] {
            for (const auto &e : chunk)
                l1i.warmInsert(e.pc);
        });
        timed(wr.l1dWarmInsert, [&] {
            for (const auto &e : chunk) {
                if (e.dataAddr != kInvalidAddr)
                    l1d.warmInsert(e.dataAddr);
            }
        });
        timed(wr.tage, [&] {
            for (const auto &e : chunk) {
                if (!e.isBranch())
                    continue;
                if (e.kind == isa::InstrKind::CondBranch) {
                    tage.predict(e.pc);
                    tage.update(e.pc, e.taken);
                } else {
                    tage.updateHistoryUnconditional(e.pc);
                }
            }
        });
        timed(wr.btbUpdate, [&] {
            for (const auto &e : chunk) {
                if (e.isBranch() && e.taken)
                    btb.update(e.pc, e.target, e.kind);
            }
        });
        for (const auto &e : chunk) {
            bool data = e.dataAddr != kInvalidAddr;
            wr.llcWarmTouch.calls += 1 + data;
            wr.l1iWarmInsert.calls += 1;
            wr.l1dWarmInsert.calls += data;
            wr.tage.calls += e.isBranch();
            wr.btbUpdate.calls += e.isBranch() && e.taken;
        }
    }
    return wr;
}

PhaseProfile
profilePhases(const std::vector<Cell> &cells, const sim::RunWindows &windows)
{
    PhaseProfile pp;
    obs::Profiler::drain();
    obs::Profiler::setEnabled(true);
    for (const auto &cell : cells)
        (void)sim::trySimulate(cell.cfg, windows);
    obs::Profiler::setEnabled(false);
    using obs::ProfPhase;
    auto phase = [](const obs::ProfRecord &r, ProfPhase p) {
        return r.phaseSeconds[static_cast<unsigned>(p)];
    };
    for (const auto &rec : obs::Profiler::drain()) {
        pp.cycles += rec.cycles;
        pp.loopSeconds += rec.simSeconds();
        pp.backend += phase(rec, ProfPhase::Backend);
        pp.l1iTick += phase(rec, ProfPhase::L1iTick);
        pp.prefetcher += phase(rec, ProfPhase::Prefetcher);
        pp.dispatch += phase(rec, ProfPhase::Dispatch);
        pp.fetch += phase(rec, ProfPhase::Fetch);
    }
    return pp;
}

} // namespace dcfb::perfbench

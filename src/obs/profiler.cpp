/**
 * @file
 * Profiler globals: the enable flag and the mutex-guarded record log.
 */

#include "obs/profiler.h"

#include <algorithm>
#include <mutex>
#include <utility>

namespace dcfb::obs {

std::atomic<bool> Profiler::enabledFlag{false};

namespace {

std::mutex &
logMutex()
{
    static std::mutex m;
    return m;
}

std::vector<ProfRecord> &
logRecords()
{
    static std::vector<ProfRecord> records;
    return records;
}

} // namespace

const char *
profPhaseName(ProfPhase phase)
{
    switch (phase) {
      case ProfPhase::Backend:
        return "backend";
      case ProfPhase::L1iTick:
        return "l1i_tick";
      case ProfPhase::Prefetcher:
        return "prefetcher";
      case ProfPhase::Dispatch:
        return "dispatch";
      case ProfPhase::Fetch:
        return "fetch";
      case ProfPhase::Integrity:
        return "integrity";
    }
    return "unknown";
}

void
tilePhases(PhaseSeconds &phases, double loopSeconds)
{
    constexpr unsigned integrity = static_cast<unsigned>(ProfPhase::Integrity);
    double sampled = 0.0;
    for (unsigned i = 0; i < integrity; ++i)
        sampled += phases[i];
    if (sampled <= 0.0)
        return;
    double scale = (loopSeconds - phases[integrity]) / sampled;
    for (unsigned i = 0; i < integrity; ++i)
        phases[i] *= scale;
}

void
Profiler::setEnabled(bool on)
{
    enabledFlag.store(on, std::memory_order_relaxed);
}

void
Profiler::push(ProfRecord record)
{
    std::lock_guard<std::mutex> lock(logMutex());
    logRecords().push_back(std::move(record));
}

std::vector<ProfRecord>
Profiler::drain()
{
    std::lock_guard<std::mutex> lock(logMutex());
    return std::exchange(logRecords(), {});
}

JsonValue
profJson(std::vector<ProfRecord> records)
{
    std::stable_sort(records.begin(), records.end(),
                     [](const ProfRecord &a, const ProfRecord &b) {
                         if (a.workload != b.workload)
                             return a.workload < b.workload;
                         return a.design < b.design;
                     });
    JsonValue cells = JsonValue::array();
    for (const auto &rec : records) {
        JsonValue p = JsonValue::object();
        p["workload"] = rec.workload;
        p["design"] = rec.design;
        p["cycles"] = rec.cycles;
        p["instructions"] = rec.instructions;
        p["setup_s"] = rec.setupSeconds;
        p["warm"] = rec.warm;
        p["warm_s"] = rec.warmSeconds;
        p["measure_s"] = rec.measureSeconds;
        p["sim_s"] = rec.simSeconds();
        p["cycles_per_sec"] = rec.cyclesPerSecond();
        JsonValue phases = JsonValue::object();
        for (unsigned i = 0; i < kProfPhases; ++i)
            phases[profPhaseName(static_cast<ProfPhase>(i))] =
                rec.phaseSeconds[i];
        p["phase_s"] = std::move(phases);
        cells.push(std::move(p));
    }
    JsonValue prof = JsonValue::object();
    prof["schema"] = "dcfb-prof-v1";
    prof["cells"] = std::move(cells);
    return prof;
}

} // namespace dcfb::obs

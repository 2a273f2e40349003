#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <vector>

#include "obs/json.h"

namespace dcfb::obs {

const char *
missClassName(MissClass cls)
{
    switch (cls) {
      case MissClass::Sequential:
        return "seq";
      case MissClass::Discontinuity:
        return "disc";
      case MissClass::Btb:
        return "btb";
      case MissClass::None:
        return "-";
    }
    return "?";
}

const char *
missOutcomeName(MissOutcome outcome)
{
    switch (outcome) {
      case MissOutcome::Covered:
        return "covered";
      case MissOutcome::Late:
        return "late";
      case MissOutcome::Uncovered:
        return "uncovered";
      case MissOutcome::Wasted:
        return "wasted";
    }
    return "?";
}

namespace {

/** One buffered attribution event (formatted only at close()). */
struct TraceEvent
{
    Cycle cycle = 0;
    Addr addr = 0;
    const char *unit = "";
    MissClass cls = MissClass::None;
    MissOutcome outcome = MissOutcome::Uncovered;
};

/** One run's buffered stream.  Thread-local while recording (a run
 *  executes entirely on one worker); moved into the sink at endRun. */
struct RunBuf
{
    std::string workload;
    std::string design;
    std::uint64_t ordinal = 0; //!< tie-break between equal labels
    std::vector<TraceEvent> events;
    std::uint64_t droppedEvents = 0;
};

thread_local RunBuf *tlRun = nullptr;

constexpr std::uint64_t kUntagged = ~std::uint64_t{0};
std::atomic<std::uint64_t> gNextOrdinal{0};
thread_local std::uint64_t tlRunTag = kUntagged;

std::atomic<std::uint64_t> gEmitted{0};
std::atomic<std::uint64_t> gDropped{0};

} // namespace

struct Tracing::State
{
    Config cfg;
    std::mutex mutex;
    std::vector<RunBuf> completed; //!< finished runs, arrival order
};

Tracing::State *Tracing::state = nullptr;
thread_local bool Tracing::tlRunActive = false;

bool
Tracing::open(const std::string &path)
{
    Config cfg;
    cfg.path = path;
    return open(cfg);
}

bool
Tracing::open(const Config &config)
{
    close();
    // Probe writability up front so a bad path fails at the CLI
    // instead of after the full sweep has run.
    {
        std::ofstream probe(config.path,
                            std::ios::out | std::ios::trunc);
        if (!probe.is_open()) {
            std::fprintf(stderr, "[obs] cannot open trace file %s\n",
                         config.path.c_str());
            return false;
        }
    }
    auto *s = new State;
    s->cfg = config;
    if (s->cfg.maxEvents == 0)
        s->cfg.maxEvents = 1;
    gEmitted.store(0, std::memory_order_relaxed);
    gDropped.store(0, std::memory_order_relaxed);
    state = s;
    tlRunActive = false;
    return true;
}

std::uint64_t
Tracing::reserveRuns(std::uint64_t n)
{
    return gNextOrdinal.fetch_add(n, std::memory_order_relaxed);
}

Tracing::RunTag::RunTag(std::uint64_t ordinal)
{
    tlRunTag = ordinal;
}

Tracing::RunTag::~RunTag()
{
    tlRunTag = kUntagged;
}

void
Tracing::beginRun(const std::string &workload, const std::string &design)
{
    if (!state)
        return;
    delete tlRun; // a run that never ended (failed cell): discard it
    tlRun = new RunBuf;
    tlRun->workload = workload;
    tlRun->design = design;
    tlRun->ordinal = tlRunTag != kUntagged ? tlRunTag : reserveRuns(1);
    tlRunActive = true;
}

void
Tracing::endRun()
{
    tlRunActive = false;
    if (!tlRun)
        return;
    RunBuf *run = tlRun;
    tlRun = nullptr;
    if (State *s = state) {
        std::lock_guard<std::mutex> lock(s->mutex);
        s->completed.push_back(std::move(*run));
    }
    delete run;
}

void
Tracing::record(const char *unit, Cycle cycle, Addr addr, MissClass cls,
                MissOutcome outcome)
{
    if (!enabled())
        return;
    RunBuf *run = tlRun;
    if (run->events.size() >= state->cfg.maxEvents) {
        ++run->droppedEvents;
        gDropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    run->events.push_back(TraceEvent{cycle, addr, unit, cls, outcome});
    gEmitted.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
Tracing::emitted()
{
    return gEmitted.load(std::memory_order_relaxed);
}

std::uint64_t
Tracing::dropped()
{
    return gDropped.load(std::memory_order_relaxed);
}

void
Tracing::close()
{
    if (!state)
        return;
    State *s = state;
    state = nullptr;
    tlRunActive = false;
    delete tlRun;
    tlRun = nullptr;

    // Deterministic file order regardless of worker interleaving:
    // runs sorted by (workload, design) label, repeated labels by the
    // ordinal their runner handed out in cell order, and events within
    // a run are already in cycle order (each run records serially).
    std::vector<RunBuf> runs;
    {
        std::lock_guard<std::mutex> lock(s->mutex);
        runs = std::move(s->completed);
    }
    std::sort(runs.begin(), runs.end(), [](const RunBuf &a, const RunBuf &b) {
        if (a.workload != b.workload)
            return a.workload < b.workload;
        if (a.design != b.design)
            return a.design < b.design;
        return a.ordinal < b.ordinal;
    });

    std::ofstream out(s->cfg.path, std::ios::out | std::ios::trunc);
    if (!out.is_open()) {
        std::fprintf(stderr, "[obs] cannot open trace file %s\n",
                     s->cfg.path.c_str());
        delete s;
        return;
    }

    auto emit = [&](const JsonValue &record) {
        out << record.dump() << '\n';
    };

    std::uint64_t written = 0;
    std::uint64_t droppedEvents = 0;
    std::uint64_t runIndex = 0;
    char addrBuf[24];
    for (const RunBuf &run : runs) {
        ++runIndex;
        droppedEvents += run.droppedEvents;
        JsonValue head = JsonValue::object();
        head["type"] = "run";
        head["run"] = runIndex;
        head["workload"] = run.workload;
        head["design"] = run.design;
        emit(head);

        for (const TraceEvent &ev : run.events) {
            ++written;
            std::snprintf(addrBuf, sizeof(addrBuf), "0x%llx",
                          static_cast<unsigned long long>(ev.addr));
            JsonValue rec = JsonValue::object();
            rec["type"] = "miss";
            rec["run"] = runIndex;
            rec["cycle"] = ev.cycle;
            rec["unit"] = ev.unit;
            rec["addr"] = addrBuf;
            rec["class"] = missClassName(ev.cls);
            rec["outcome"] = missOutcomeName(ev.outcome);
            emit(rec);
        }
    }

    // Closing summary record: how complete is the stream?
    JsonValue summary = JsonValue::object();
    summary["type"] = "summary";
    summary["runs"] = runIndex;
    summary["events"] = written;
    summary["dropped"] = droppedEvents;
    emit(summary);
    out.close();
    delete s;
}

} // namespace dcfb::obs
